"""Independent correctness checks, written against the graph alone.

Nothing here imports ``repro``: distances come from a plain hop BFS and a
composite-weight Dijkstra over edge lists, and the FT-BFS property is
Definition 2.1 itself, ``dist(s, v, H \\ e) == dist(s, v, G \\ e)`` for
every vertex ``v``.  Every check returns a list of error strings (empty
when it passes), and :func:`planted_fault_errors` feeds each check one
deliberately broken input, so that no check can pass vacuously.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

UNREACHABLE = -1

Adjacency = List[List[Tuple[int, int]]]


def adjacency(n: int, edges: Sequence[Tuple[int, int]]) -> Adjacency:
    """``adj[u]`` = list of ``(neighbor, edge id)`` in edge-id order."""
    adj: Adjacency = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return adj


def bfs(
    adj: Adjacency,
    source: int,
    banned: Iterable[int] = (),
    allowed: Optional[Set[int]] = None,
) -> List[int]:
    """Hop distances from ``source`` avoiding ``banned`` edges (and, with
    ``allowed``, using only those edges); ``UNREACHABLE`` elsewhere."""
    banned = set(banned)
    dist = [UNREACHABLE] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v, eid in adj[u]:
            if dist[v] != UNREACHABLE or eid in banned:
                continue
            if allowed is not None and eid not in allowed:
                continue
            dist[v] = du
            queue.append(v)
    return dist


def dijkstra(
    adj: Adjacency, weights: Sequence[int], source: int, banned: Iterable[int] = ()
) -> Tuple[List[Optional[int]], List[int]]:
    """Composite-weight distances and parent edge ids (``-1`` for the
    source and for unreachable vertices).  Ties on the distance break
    towards the smaller vertex id, then the first relaxing edge."""
    banned = set(banned)
    n = len(adj)
    dist: List[Optional[int]] = [None] * n
    parent_eid = [-1] * n
    done = [False] * n
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, eid in adj[u]:
            if done[v] or eid in banned:
                continue
            nd = d + weights[eid]
            cur = dist[v]
            if cur is None or nd < cur:
                dist[v] = nd
                parent_eid[v] = eid
                heapq.heappush(heap, (nd, v))
    return dist, parent_eid


class Tree:
    """A rooted spanning tree given by parent edge ids, with Euler
    intervals: ``u`` lies in the subtree of ``c`` iff
    ``tin[c] <= tin[u] < tout[c]``; ``preorder[tin[c]:tout[c]]`` lists it."""

    def __init__(
        self,
        edges: Sequence[Tuple[int, int]],
        source: int,
        parent_eid: Sequence[int],
    ) -> None:
        n = len(parent_eid)
        children: List[List[int]] = [[] for _ in range(n)]
        self.child_of: Dict[int, int] = {}
        for v, eid in enumerate(parent_eid):
            if eid >= 0:
                a, b = edges[eid]
                children[a if b == v else b].append(v)
                self.child_of[eid] = v
        self.tin = [-1] * n
        self.tout = [-1] * n
        self.preorder: List[int] = []
        stack = [(source, False)]
        while stack:
            v, leaving = stack.pop()
            if leaving:
                self.tout[v] = len(self.preorder)
                continue
            self.tin[v] = len(self.preorder)
            self.preorder.append(v)
            stack.append((v, True))
            for c in reversed(children[v]):
                stack.append((c, False))
        self.tree_eids = sorted(self.child_of)

    def in_subtree(self, root: int, v: int) -> bool:
        return self.tin[v] >= 0 and self.tin[root] <= self.tin[v] < self.tout[root]


def bridges(adj: Adjacency) -> Set[int]:
    """Edge ids of all bridges (iterative Tarjan low-link)."""
    n = len(adj)
    order = [-1] * n
    low = [0] * n
    found: Set[int] = set()
    counter = 0
    for root in range(n):
        if order[root] != -1:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            u, via, it = stack[-1]
            advanced = False
            for v, eid in it:
                if eid == via:
                    continue
                if order[v] == -1:
                    order[v] = low[v] = counter
                    counter += 1
                    stack.append((v, eid, iter(adj[v])))
                    advanced = True
                    break
                low[u] = min(low[u], order[v])
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] > order[p]:
                    found.add(via)
    return found


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
def check_structure_sets(
    num_edges: int, h_edges: Iterable[int], reinforced: Iterable[int]
) -> List[str]:
    """``H`` is a set of edges of ``G`` and ``E'`` is a subset of ``H``."""
    h = set(h_edges)
    errors = [f"H holds {e}, not an edge of G" for e in sorted(h) if not 0 <= e < num_edges]
    errors += [f"E' holds {e}, not an edge of H" for e in sorted(set(reinforced) - h)]
    return errors


def check_report(ok: bool, checked_failures: int) -> List[str]:
    """The program's own verifier accepted, and looked at something."""
    errors = []
    if not ok:
        errors.append("verify_structure reported violations")
    if checked_failures <= 0:
        errors.append("verify_structure checked no failures")
    return errors


def check_definition_21(
    adj: Adjacency,
    source: int,
    h_edges: Set[int],
    failures: Sequence[Optional[int]],
) -> List[str]:
    """Definition 2.1 on the given failures (``None`` = no failure)."""
    errors = []
    for eid in failures:
        banned = () if eid is None else (eid,)
        in_g = bfs(adj, source, banned)
        in_h = bfs(adj, source, banned, allowed=h_edges)
        if in_g != in_h:
            v = next(v for v in range(len(adj)) if in_g[v] != in_h[v])
            errors.append(
                f"Definition 2.1 fails for failed edge {eid}: vertex {v} "
                f"at {in_h[v]} in H but {in_g[v]} in G"
            )
    return errors


def definition_21_sample(
    rng: random.Random,
    num_edges: int,
    h_edges: Set[int],
    reinforced: Set[int],
    size: int,
) -> List[Optional[int]]:
    """The no-failure case plus a sample of fault-prone edges, mostly
    backup edges of ``H`` (the only ones whose failure can break it)."""
    backup = sorted(h_edges - reinforced)
    outside = [e for e in range(num_edges) if e not in h_edges]
    picked: List[Optional[int]] = [None]
    picked += rng.sample(backup, min(len(backup), size - size // 4))
    picked += rng.sample(outside, min(len(outside), size // 4))
    return picked


class Reference:
    """Reference answers under a failure set, memoized per set."""

    def __init__(self, adj: Adjacency, weights: Sequence[int], source: int) -> None:
        self.adj = adj
        self.weights = weights
        self.source = source
        self.memo: Dict[FrozenSet[int], Tuple[List[int], List[Optional[int]]]] = {}

    def under(self, failed: FrozenSet[int]) -> Tuple[List[int], List[Optional[int]]]:
        ref = self.memo.get(failed)
        if ref is None:
            ref = (
                bfs(self.adj, self.source, failed),
                dijkstra(self.adj, self.weights, self.source, failed)[0],
            )
            self.memo[failed] = ref
        return ref


def check_walk(
    response: dict,
    edges: Sequence[Tuple[int, int]],
    source: int,
    failed: FrozenSet[int],
) -> List[str]:
    """A ``path`` answer is a walk in ``G \\ F`` from the source to the
    requested vertex, with as many edges as its stated length."""
    path, eids, v = response.get("path"), response.get("edges"), response.get("v")
    if not isinstance(path, list) or not isinstance(eids, list) or not path:
        return [f"path answer for {v} has no path"]
    if path[0] != source or path[-1] != v:
        return [f"path for {v} runs {path[0]} -> {path[-1]}"]
    if len(eids) != len(path) - 1 or response.get("hops") != len(eids):
        return [f"path for {v}: {len(path)} vertices, {len(eids)} edges, hops {response.get('hops')}"]
    for a, b, eid in zip(path, path[1:], eids):
        if not 0 <= eid < len(edges) or set(edges[eid]) != {a, b}:
            return [f"path for {v}: edge {eid} does not join {a} and {b}"]
        if eid in failed:
            return [f"path for {v} uses failed edge {eid}"]
    return []


def check_answer(
    response: dict,
    ref: Reference,
    failed: FrozenSet[int],
    shift: int,
) -> List[str]:
    """A ``dist``/``path`` answer against the reference under ``failed``:
    hop counts equal plain BFS, composite distances equal the Dijkstra,
    ``null`` exactly for unreachable vertices, and a path's weight equals
    the shortest distance."""
    hops_ref, dist_ref = ref.under(failed)
    if response.get("op") == "path":
        v = response["v"]
        if hops_ref[v] == UNREACHABLE:
            return [f"path answered for unreachable {v}"]
        errors = []
        if response["hops"] != hops_ref[v]:
            errors.append(f"path for {v}: {response['hops']} hops, BFS says {hops_ref[v]}")
        weight = sum(ref.weights[e] for e in response["edges"])
        if weight != dist_ref[v]:
            errors.append(f"path for {v} weighs {weight}, shortest is {dist_ref[v]}")
        return errors
    errors = []
    for t, d, h in zip(response["targets"], response["dist"], response["hops"]):
        if hops_ref[t] == UNREACHABLE:
            if d is not None or h is not None:
                errors.append(f"dist {t} under {sorted(failed)}: {d} for an unreachable vertex")
        elif d is None or h is None:
            errors.append(f"dist {t} under {sorted(failed)}: null for a reachable vertex")
        elif h != hops_ref[t] or d != dist_ref[t] or d >> shift != h:
            errors.append(
                f"dist {t} under {sorted(failed)}: ({d}, {h}), reference "
                f"({dist_ref[t]}, {hops_ref[t]})"
            )
    if len(response["targets"]) != len(response["dist"]):
        errors.append("dist answer length differs from its targets")
    return errors


def unique_parent_edge(adj: Adjacency, source: int) -> Optional[int]:
    """An edge that is the only BFS-parent edge of some vertex in ``G``
    (every FT-BFS ``H`` must hold it, and ``H`` without it must fail
    Definition 2.1 already without any failure)."""
    depth = bfs(adj, source)
    for v in range(len(adj)):
        if v == source or depth[v] <= 0:
            continue
        ups = [eid for u, eid in adj[v] if depth[u] == depth[v] - 1]
        if len(ups) == 1:
            return ups[0]
    return None


def planted_fault_errors(
    adj: Adjacency,
    edges: Sequence[Tuple[int, int]],
    source: int,
    h_edges: Set[int],
    reinforced: Set[int],
    ref: Reference,
    shift: int,
    checked: Sequence[Tuple[dict, FrozenSet[int]]],
) -> List[str]:
    """Run every check on one broken input each; return the checks that
    failed to notice.  ``checked`` holds answers that passed, with their
    failure sets, from which the perturbed answers are made."""
    missed = []
    m = len(edges)
    if not check_structure_sets(m, h_edges | {m}, reinforced):
        missed.append("H-subset-of-E check accepted an edge id outside G")
    stray = next((e for e in range(m) if e not in h_edges), m)
    if not check_structure_sets(m, h_edges, reinforced | {stray}):
        missed.append("E'-subset-of-H check accepted an edge outside H")
    if not check_report(False, 1) or not check_report(True, 0):
        missed.append("verify-report check accepted a failed or empty report")
    dropped = unique_parent_edge(adj, source)
    if dropped is None or dropped not in h_edges:
        missed.append("no unique BFS-parent edge in H to drop for Definition 2.1")
    elif not check_definition_21(adj, source, h_edges - {dropped}, [None]):
        missed.append(f"Definition 2.1 check accepted H without edge {dropped}")
    if not ok_false_count(['{"ok": false, "error": "planted"}']):
        missed.append("ok:false count missed a failed response")

    dist_answer = next(
        ((r, f) for r, f in checked
         if r.get("op") == "dist" and r["dist"] and r["dist"][0] is not None),
        None,
    )
    if dist_answer is None:
        missed.append("no checked dist answer to perturb")
    else:
        resp, failed = dist_answer
        for field, fake in (("dist", resp["dist"][0] + 1), ("hops", resp["hops"][0] + 1), ("dist", None)):
            bad = dict(resp, **{field: [fake] + resp[field][1:]})
            if not check_answer(bad, ref, failed, shift):
                missed.append(f"answer check accepted a perturbed {field} ({fake})")
    path_answer = next(
        ((r, f) for r, f in checked if r.get("op") == "path" and r["edges"]), None
    )
    if path_answer is None:
        missed.append("no checked path answer to perturb")
    else:
        resp, failed = path_answer
        other = (resp["edges"][0] + 1) % m
        bad_edge = dict(resp, edges=[other] + resp["edges"][1:])
        if not check_walk(bad_edge, edges, source, failed):
            missed.append("walk check accepted a path with a wrong edge")
        short = dict(resp, path=resp["path"][:-1], edges=resp["edges"][:-1], hops=resp["hops"] - 1)
        if not check_walk(short, edges, source, failed) and not check_answer(short, ref, failed, shift):
            missed.append("path checks accepted a truncated path")
        longer = dict(resp, hops=resp["hops"] + 1)
        if not check_answer(longer, ref, failed, shift):
            missed.append("answer check accepted a path with a wrong hop count")
    return missed


def ok_false_count(lines: Iterable[str]) -> int:
    """Responses that answered ``ok: false``."""
    return sum(1 for line in lines if '"ok": false' in line)
