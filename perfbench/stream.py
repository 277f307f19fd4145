"""The request stream: a seeded, closed-loop mix of reads and writes.

Class shares are exact counts, not per-request draws, so every seed gives
the same number of requests of each class; only which vertices and edges
they name changes.  Failures are always tree edges of the oracle's
shortest-path tree (computed here from the weights, not read from the
program), so "row" requests really hit a replacement row and two-failure
requests really fall back to a traversal.
"""

from __future__ import annotations

import json
import random
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

from checks import Tree

#: Share of requests per class; "base" takes the remainder (~35%).
SHARES = {
    "row": 0.43,  # dist with one tree-edge failure
    "path": 0.14,  # path with one tree-edge failure, reachable targets only
    "batch": 0.04,  # dist over BATCH targets with one tree-edge failure
    "standing": 0.035,  # mark_down -> EPISODE dist queries -> mark_up
    "fallback": 0.005,  # two tree-edge failures, see make_stream
}
BATCH = 64
EPISODE = 20
POOL = 8


class Request(NamedTuple):
    klass: str  # latency class: base/row/path/batch/standing/fallback
    line: str  # the JSONL request
    failed: Tuple[int, ...]  # explicit failures named by the request


def _dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def class_counts(total: int) -> dict:
    """Requests per slot kind for a stream of ``total`` requests."""
    counts = {k: round(share * total) for k, share in SHARES.items()}
    counts["standing"] = round(SHARES["standing"] * total / (EPISODE + 2))
    counts["fallback"] -= counts["fallback"] % (2 * POOL)
    used = sum(v for k, v in counts.items() if k != "standing")
    counts["base"] = total - used - counts["standing"] * (EPISODE + 2)
    return counts


def make_stream(
    seed: int,
    total: int,
    n: int,
    tree: Tree,
    bridge_eids: Set[int],
) -> List[Request]:
    rng = random.Random(seed)
    eids = tree.tree_eids
    reachable = [v for v in range(n) if tree.tin[v] >= 0]

    def subtree_or_any(eid: int) -> int:
        if rng.random() < 0.5:
            c = tree.child_of[eid]
            return tree.preorder[rng.randrange(tree.tin[c], tree.tout[c])]
        return rng.randrange(n)

    def reachable_under(eid: int) -> int:
        c = tree.child_of[eid]
        while True:
            v = rng.choice(reachable)
            if eid not in bridge_eids or not tree.in_subtree(c, v):
                return v

    def dist(klass: str, v: int, failed: Sequence[int] = ()) -> Request:
        req = {"op": "dist", "v": v}
        if failed:
            req["failed"] = list(failed)
        return Request(klass, _dumps(req), tuple(failed))

    pool = [tuple(rng.sample(eids, 2)) for _ in range(POOL)]
    counts = class_counts(total)
    slots = [kind for kind, k in counts.items() for _ in range(k)]
    rng.shuffle(slots)
    out: List[Request] = []
    fallbacks = 0
    for kind in slots:
        if kind == "base":
            out.append(dist("base", rng.randrange(n)))
        elif kind == "row":
            e = rng.choice(eids)
            out.append(dist("row", subtree_or_any(e), (e,)))
        elif kind == "path":
            e = rng.choice(eids)
            v = reachable_under(e)
            out.append(Request("path", _dumps({"op": "path", "v": v, "failed": [e]}), (e,)))
        elif kind == "batch":
            e = rng.choice(eids)
            targets = [rng.randrange(n) for _ in range(BATCH)]
            out.append(Request("batch", _dumps({"op": "dist", "targets": targets, "failed": [e]}), (e,)))
        elif kind == "standing":
            e = rng.choice(eids)
            out.append(Request("standing", _dumps({"op": "mark_down", "eid": e}), ()))
            out.extend(dist("standing", subtree_or_any(e)) for _ in range(EPISODE))
            out.append(Request("standing", _dumps({"op": "mark_up", "eid": e}), ()))
        else:
            # Pool and fresh sets alternate and the pool is used in turn,
            # so 15 other sets come between two uses of a pool set: it
            # stays in the oracle's 16-entry fallback LRU, and every seed
            # gives POOL misses and the same number of hits.
            if fallbacks % 2 == 0:
                failed = pool[(fallbacks // 2) % POOL]
            else:
                failed = tuple(rng.sample(eids, 2))
            fallbacks += 1
            out.append(dist("fallback", rng.randrange(n), failed))
    return out


def standing_sets(stream: Sequence[Request]) -> List[frozenset]:
    """The effective failure set of every request: its own failures plus
    the standing set left by earlier mark_down/mark_up writes."""
    marked: Set[int] = set()
    out = []
    for req in stream:
        if req.klass == "standing" and '"op":"mark_' in req.line:
            obj = json.loads(req.line)
            if obj["op"] == "mark_down":
                marked.add(obj["eid"])
            else:
                marked.discard(obj["eid"])
        out.append(frozenset(marked) | frozenset(req.failed))
    return out


def is_query(req: Request) -> bool:
    return '"op":"mark_' not in req.line


def expected_marked(stream: Sequence[Request]) -> List[Optional[List[int]]]:
    """For each request the standing set a mark op must echo (None for
    queries)."""
    sets = standing_sets(stream)
    return [None if is_query(r) else sorted(s) for r, s in zip(stream, sets)]
