"""Workload definitions shared by the parent and child (BENCHMARK.json
holds the metric names, units, bounds and why each workload is there).

A workload fixes one input instance (graph, epsilon, construction weight
scheme, oracle weight seed) and the size of the request stream.  The
``--seed`` of a run drives only the request stream and the samples the
correctness checks draw; the instance itself is fixed, because the Phase
S1 cost moves 2x between graph seeds of the same family (3.2-7.5 s on
G(2000, deg 10)), which would swamp any bound a regression check can use.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional


class Workload(NamedTuple):
    family: str  # name in repro.harness.workloads.WORKLOADS
    params: Dict[str, object]
    epsilon: float
    weight_scheme: Optional[str]  # None: ConstructOptions default ("auto")
    requests: int  # request-stream length per round
    round_s: float  # about how long one round takes (sizes the round count)
    verify_reps: int  # verify_structure calls per timed verify loop
    oracle_reps: int  # oracle builds per timed oracle-build loop


WORKLOADS: Dict[str, Workload] = {
    "gnp-random": Workload(
        family="gnp",
        params={"n": 2000, "avg_degree": 10.0, "seed": 0},
        epsilon=0.3,
        weight_scheme="random",
        requests=20_000,
        round_s=15.0,
        verify_reps=4,
        oracle_reps=5,
    ),
    "lb-exact": Workload(
        family="lb_deep",
        params={"d": 32, "k": 3, "x": 8},
        epsilon=0.2,
        weight_scheme=None,
        requests=20_000,
        round_s=12.0,
        verify_reps=3,
        oracle_reps=2,
    ),
    "ba-serve": Workload(
        family="barabasi_albert",
        params={"n": 1000, "m": 3, "seed": 0},
        epsilon=0.3,
        weight_scheme="random",
        requests=100_000,
        round_s=12.0,
        verify_reps=10,
        oracle_reps=12,
    ),
}

#: Seed of the random-scheme weights the oracle is built with, as in
#: ``repro build --save`` with its default ``--seed 0``.
ORACLE_WEIGHT_SEED = 0

#: Timed loops of verify and of the oracle build after each round's
#: pipeline pass; with the reps above each loop takes about 0.5-0.75 s.
STAGE_SAMPLES = 3

#: Setup-only processes started per run on top of the pipeline rounds,
#: so ``setup_s`` is a median of at least this many fresh starts.
SETUP_PROBES = 5


def rounds(workload: str, seconds: float) -> int:
    """Pipeline rounds of a run: a fixed number for a given run length,
    so every run takes its medians over the same number of samples."""
    return max(2, int(seconds // WORKLOADS[workload].round_s))


#: Request classes of the stream (see stream.py); per-class latency
#: percentiles are per-layer metrics of repro.oracle.query.
REQUEST_CLASSES = ("base", "row", "path", "batch", "standing", "fallback")


def percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted list."""
    k = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[k]
