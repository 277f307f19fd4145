"""One round of one workload in a fresh process (started by run.py).

    python3 perfbench/child.py --workload NAME --t0 NS --setup-only
    python3 perfbench/child.py --workload NAME --t0 NS --stream FILE
        --responses FILE --snapshot FILE [--structure FILE] [--trace FILE]

``--t0`` is the parent's ``time.monotonic_ns()`` just before it started
this process, so ``setup_s`` covers interpreter start, the ``repro``
imports, engine resolution (loading the compiled kernels from their
cache), graph generation and the CSR view.  The timed pipeline follows:
build -> verify -> oracle build (``build_spt`` + ``save_structure``) ->
``load_structure`` -> the request stream of ``--stream`` (one JSONL
request a line, written by run.py) through ``OracleServer.serve``, whose
responses go to ``--responses``.  Then ``STAGE_SAMPLES`` timed loops of
verify and of the oracle build.  A speed probe (speed.py) runs through
all of it, and every time reported is scaled to the nominal host speed.
run.py checks the outputs; the result here is one JSON line.
"""

from __future__ import annotations

import time  # first: nothing else is needed to read the clock

import speed  # noqa: E402  (child.py's directory is sys.path[0])

# The speed probe runs from here on, so set-up time is scaled too.
PROBE = speed.SpeedProbe()
PROBE.start()
T_PROBE = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cache_entries(cbuild):
    try:
        return set(os.listdir(cbuild.cache_dir()))
    except OSError:
        return set()


class Client:
    """One closed-loop client: hands the server the next line of the
    stream file only after the previous response was written, and stamps
    each hand-over and each response."""

    def __init__(self, lines, out):
        self._lines = lines
        self._out = out
        self.sent = array("d")
        self.done = array("d")

    def requests(self):
        sent = self.sent.append
        clock = time.perf_counter
        for line in self._lines:
            sent(clock())
            yield line

    def write(self, text):
        self.done.append(time.perf_counter())
        self._out.write(text)

    def flush(self):
        pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--t0", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--stream")
    ap.add_argument("--responses")
    ap.add_argument("--snapshot")
    ap.add_argument("--structure")
    ap.add_argument("--trace")
    args = ap.parse_args(argv)

    # ---------------------------------------------------------------- setup
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401
    from repro.core.construct import ConstructOptions, build_epsilon_ftbfs
    from repro.core.verify import verify_structure
    from repro.engine import cbuild
    from repro.engine.csr import csr_view
    from repro.engine.registry import available_engines, get_engine
    from repro.errors import TieBreakError
    from repro.harness.workloads import workload
    from repro.oracle.serve import OracleServer
    from repro.oracle.snapshot import load_structure, save_structure
    from repro.spt.spt_tree import build_spt
    from repro.spt.weights import make_weights

    import spec

    cache_before = _cache_entries(cbuild)
    t_resolve = time.perf_counter()
    engines = available_engines()
    default_engine = get_engine().name
    kernels = cbuild.kernel_library() if "csr-c" in engines else None
    t_generate = time.perf_counter()
    wl = spec.WORKLOADS[args.workload]
    graph, source = workload(wl.family, **wl.params)
    csr_view(graph)
    t_ready = time.perf_counter()
    setup_raw = (time.monotonic_ns() - args.t0) / 1e9

    def scaled_setup():
        """Set-up from the parent's spawn, scaled by the probes taken
        since this process started."""
        busy = PROBE.busy(T_PROBE, t_ready)
        return (setup_raw - busy) * speed.NOMINAL_S / PROBE.probe_s(T_PROBE, t_ready)

    info = {
        "default_engine": default_engine,
        "available_engines": engines,
        "compiled_kernels": None if kernels is None else str(kernels.path),
        "n": graph.num_vertices,
        "m": graph.num_edges,
    }
    if args.setup_only:
        PROBE.stop()
        compiles = len(_cache_entries(cbuild) - cache_before)
        print(json.dumps({"setup_s": scaled_setup(), "kernel_compiles": compiles, "info": info}))
        return 0

    # ------------------------------------------------- untimed preparation
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    snap = Path(args.snapshot)
    opts = ConstructOptions() if wl.weight_scheme is None else ConstructOptions(weight_scheme=wl.weight_scheme)

    def phase(name):
        if tracer is not None:
            tracer.phase = name
        return _span(tracer, name)

    def oracle_build():
        reseeds = 0
        while True:
            weights = make_weights(graph, "random", seed=spec.ORACLE_WEIGHT_SEED + reseeds)
            try:
                tree = _call(tracer, "spt.build_spt", build_spt, graph, weights, source)
                break
            except TieBreakError:
                reseeds += 1
                if reseeds == 8:
                    raise
        _call(tracer, "snapshot.save", save_structure, snap, tree)
        return reseeds

    # ------------------------------------------------------- timed pipeline
    with open(args.stream) as lines, open(args.responses, "w") as out:
        client = Client(lines, out)
        t_start = time.perf_counter()
        with phase("pipeline"):
            with phase("build"):
                structure = build_epsilon_ftbfs(graph, source, wl.epsilon, options=opts)
            t_built = time.perf_counter()
            with phase("verify"):
                report = verify_structure(structure)
            t_verified = time.perf_counter()
            with phase("oracle_build"):
                reseeds = oracle_build()
            t_saved = time.perf_counter()
            with phase("load"):
                loaded = _call(tracer, "snapshot.load", load_structure, snap)
            with phase("serve"):
                server = OracleServer(loaded)
                t_stream = time.perf_counter()
                with _span(tracer, "serve.serve"):
                    served = server.serve(client.requests(), client)
                t_end = client.done[-1] if client.done else time.perf_counter()
    oracle_stats = server.oracle.stats.as_dict()
    server.close()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loaded.close()
    snapshot_bytes = snap.stat().st_size

    # ------------------------------------ timed loops of the short stages
    errors = []
    samples = []  # (verify start, end, oracle end) of each loop
    for _ in range(0 if tracer else spec.STAGE_SAMPLES):
        t0 = time.perf_counter()
        for _ in range(wl.verify_reps):
            again = verify_structure(structure)
        t1 = time.perf_counter()
        for _ in range(wl.oracle_reps):
            oracle_build()
        samples.append((t0, t1, time.perf_counter()))
        if again != report:
            errors.append("a repeated verify_structure reported differently")
    snap.unlink()
    PROBE.stop()

    # ---------------------------------------------------------- the result
    if args.structure:
        with open(args.structure, "w") as fh:
            json.dump([sorted(structure.edges), sorted(structure.reinforced),
                       sorted(structure.tree_edges)], fh)
    with open(args.stream + ".classes") as fh:
        classes = fh.read().strip()
    attempted = 4 + served["requests"] + len(samples) * (wl.verify_reps + wl.oracle_reps)
    result = {
        "setup_s": scaled_setup(),
        "requests": served["requests"],
        "attempted": attempted,
        "errors": errors,
        "report_ok": report.ok,
        "checked_failures": report.checked_failures,
        "backup_edges": structure.num_backup,
        "structure_edges": structure.num_edges,
        "structure_digest": hashlib.sha256(
            json.dumps([sorted(structure.edges), sorted(structure.reinforced)]).encode()
        ).hexdigest(),
        "snapshot_bytes": snapshot_bytes,
        "peak_rss_kib": peak_rss_kib,
        "kernel_compiles": len(_cache_entries(cbuild) - cache_before),
        "pid": os.getpid(),
        "oracle_stats": oracle_stats,
        "info": dict(
            info,
            construct_engine=structure.stats.engine,
            construct_weight_scheme=structure.stats.weight_scheme,
            oracle_weight_scheme="random",
            oracle_reseeds=reseeds,
            s1_iterations=structure.stats.s1_iterations,
        ),
    }
    if tracer is not None:
        result["pipeline_s"] = PROBE.scaled(t_start, t_end)
        result["layers"] = _layer_metrics(
            tracer, structure, report, oracle_stats, served, snapshot_bytes,
            t_generate - t_resolve, t_ready - t_generate,
        )
        result["latency_us"] = _percentiles(
            [d - s for s, d in zip(client.sent, client.done)], classes
        )
        result["info"]["engines_used"] = dict(tracer.engines_used)
        tracer.write_chrome_trace(args.trace)
    else:
        scaled = PROBE.scaled
        result.update(
            build_s=scaled(t_start, t_built),
            verify_s=[scaled(a, b) / wl.verify_reps for a, b, _ in samples],
            oracle_build_s=[scaled(b, c) / wl.oracle_reps for _, b, c in samples],
            pipeline_s=scaled(t_start, t_end),
            stream_s=scaled(t_stream, t_end),
            latency_us=_percentiles(PROBE.scaled_each(client.sent, client.done), classes),
            raw=dict(
                build_s=t_built - t_start,
                verify_s=t_verified - t_built,
                oracle_build_s=t_saved - t_verified,
                pipeline_s=t_end - t_start - PROBE.busy(t_start, t_end),
                stream_s=t_end - t_stream - PROBE.busy(t_stream, t_end),
            ),
            probes=len(PROBE),
            probe_mean_s=PROBE.probe_s(t_start, samples[-1][2] if samples else t_end),
        )
    print(json.dumps(result))
    return 0


def _percentiles(latency_s, classes) -> dict:
    """p50/p99 in microseconds, over all requests and per request class."""
    import spec

    out = {}
    groups = {"all": sorted(latency_s)}
    for i, klass in enumerate(spec.REQUEST_CLASSES):
        code = str(i)
        groups[klass] = sorted(s for s, c in zip(latency_s, classes) if c == code)
    for klass, values in groups.items():
        out[f"{klass}_p50"] = spec.percentile(values, 0.5) * 1e6
        out[f"{klass}_p99"] = spec.percentile(values, 0.99) * 1e6
    return out


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def _call(tracer, name, fn, *args):
    with _span(tracer, name):
        return fn(*args)


def _layer_metrics(tracer, structure, report, oracle_stats, served,
                   snapshot_bytes, resolve_s, generate_s):
    t = tracer
    st = structure.stats
    phases = st.elapsed_seconds  # measured by build_epsilon_ftbfs itself
    c = t.counts
    pipeline = t.total("pipeline")
    # S1, S2 and the interference index call no traced layer, so they
    # sit in the build span's self time next to the reinforcement pass.
    in_build = phases["interference"] + phases["phase_s1"] + phases["phase_s2"]
    return {
        "graphs.generate_s": generate_s,
        "engine.resolve_s": resolve_s,
        "engine.weighted_sweep_s": t.total("engine.weighted_failure_sweep"),
        "engine.weighted_sweep_calls": t.calls("engine.weighted_failure_sweep"),
        "engine.detour_batch_s": t.total("engine.batched_shortest_paths"),
        "engine.detour_batch_calls": t.calls("engine.batched_shortest_paths"),
        "engine.shortest_paths_s": t.total("engine.shortest_paths"),
        "engine.shortest_paths_calls": t.calls("engine.shortest_paths"),
        "engine.failure_sweep_s": t.total("engine.sweep"),
        "spt.build_spt_s": t.total("spt.build_spt"),
        "spt.replacement_precompute_s": t.total("spt.precompute_all"),
        "spt.replacement_rows": c.get("spt.replacement_rows", 0),
        "pcons.s": t.total("pcons.run_pcons"),
        "pcons.self_s": t.self_time("pcons.run_pcons"),
        "pcons.pairs": c.get("pcons.pairs", 0),
        "pcons.uncovered_pairs": c.get("pcons.uncovered_pairs", 0),
        "pcons.detour_traversals": c.get("pcons.detour_traversals", 0),
        "interference.index_s": phases["interference"],
        "interference.pi_intersects_calls": c.get("interference.pi_intersects_calls", 0),
        "phase_s1.s": phases["phase_s1"],
        "phase_s1.iterations": st.s1_iterations,
        "phase_s1.edges_added": st.s1_edges_added,
        "phase_s2.s": phases["phase_s2"],
        "phase_s2.edges_added": st.s2_edges_added,
        "construct.reinforce_s": t.self_time("build") - in_build,
        "construct.reinforced_edges": structure.num_reinforced,
        "verify.s": t.total("verify"),
        "verify.sweep_s": t.total("engine.sweep", "verify"),
        "verify.compare_s": t.self_time("verify"),
        "verify.checked_failures": report.checked_failures,
        "snapshot.save_s": t.total("snapshot.save"),
        "snapshot.load_s": t.total("snapshot.load"),
        "snapshot.bytes": snapshot_bytes,
        "query.base_answers": oracle_stats["base_answers"],
        "query.row_answers": oracle_stats["row_answers"],
        "query.fallback_traversals": oracle_stats["fallback_traversals"],
        "query.fallback_hits": oracle_stats["fallback_hits"],
        "query.fallback_s": t.total("engine.shortest_paths", "serve"),
        "serve.protocol_s": t.self_time("serve.serve"),
        "serve.requests": served["requests"],
        "trace.pipeline_s": pipeline,
        "trace.unaccounted_s": pipeline - t.layer_self_time(),
    }


if __name__ == "__main__":
    sys.exit(main())
