#!/usr/bin/env python3
"""End-to-end FT-BFS benchmark: build -> verify -> snapshot -> serve.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gnp-random --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload once
    python3 perfbench/run.py --steady --repeat 10             # run-to-run spread

A run makes the request stream from ``--seed``, warms the compiled-kernel
cache, starts ``SETUP_PROBES`` set-up-only processes, then a fixed number
of pipeline rounds (``spec.rounds``), each in a fresh process with every
``REPRO_*`` variable cleared.  Each metric is the median over the rounds
(``setup_s`` also over the probes); times are scaled to the nominal host
speed (speed.py).  The checks of checks.py run on the first round, the
later ones must reproduce its structure and its responses byte for byte.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics instead.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spec  # noqa: E402
import stream  # noqa: E402

#: Wall time after which a run gives up (it must end within 180 s).
RUN_BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    """The parent's environment without ``REPRO_*``; the kernel cache
    (``$XDG_CACHE_HOME/repro``) and compiler temporaries live inside the
    checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["XDG_CACHE_HOME"] = str(ROOT / ".bench_build" / "cache")
    env["TMPDIR"] = str(ROOT / ".bench_build" / "tmp")
    return env


def run_child(workload: str, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload]
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd + ["--t0", str(t0), *flags],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} round timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{workload} round exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# inputs and checks (untimed, in this process)
# ----------------------------------------------------------------------
class Inputs:
    """One workload's graph, the benchmark's own view of it, and the
    request stream of ``seed``, written to ``path`` for the rounds."""

    def __init__(self, workload: str, seed: int, path: Path) -> None:
        os.environ.update(child_env())
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
        sys.path.insert(0, str(ROOT / "src"))
        from repro.harness.workloads import workload as generate
        from repro.spt.weights import make_weights

        wl = spec.WORKLOADS[workload]
        graph, self.source = generate(wl.family, **wl.params)
        self.edges = [graph.endpoints(e) for e in range(graph.num_edges)]
        self.adj = checks.adjacency(graph.num_vertices, self.edges)
        self.weights = make_weights(graph, "random", seed=spec.ORACLE_WEIGHT_SEED)
        tree = checks.Tree(
            self.edges, self.source, checks.dijkstra(self.adj, self.weights.weights, self.source)[1]
        )
        self.seed = seed
        self.requests = stream.make_stream(
            seed, wl.requests, graph.num_vertices, tree, checks.bridges(self.adj)
        )
        self.path = path
        with open(path, "w") as fh:
            fh.writelines(r.line + "\n" for r in self.requests)
        with open(str(path) + ".classes", "w") as fh:
            fh.write("".join(str(spec.REQUEST_CLASSES.index(r.klass)) for r in self.requests))


def read_responses(path: str, pid: int):
    """The response lines and their sha256, without the server's pid."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    pid_tag = f', "pid": {pid}'
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.replace(pid_tag, "").encode())
    return lines, digest.hexdigest()


def deep_checks(inputs: Inputs, result: dict, responses, structure_file: str, errors) -> dict:
    """The independent checks of checks.py on one round's outputs."""
    with open(structure_file) as fh:
        h_list, reinforced_list, _tree_edges = json.load(fh)
    h_edges, reinforced = set(h_list), set(reinforced_list)
    adj, edges, source, requests = inputs.adj, inputs.edges, inputs.source, inputs.requests
    if result["info"]["oracle_reseeds"]:
        errors.append("the oracle build reseeded; the stream's failures are not its tree edges")
    rng = random.Random(inputs.seed ^ 0xC0FFEE)
    m = len(edges)
    errors += checks.check_structure_sets(m, h_edges, reinforced)
    errors += checks.check_report(result["report_ok"], result["checked_failures"])
    failures = checks.definition_21_sample(rng, m, h_edges, reinforced, 32)
    errors += checks.check_definition_21(adj, source, h_edges, failures)

    effective = stream.standing_sets(requests)
    marks = stream.expected_marked(requests)
    queries = [i for i, r in enumerate(requests) if marks[i] is None]
    fallback = [i for i in queries if requests[i].klass == "fallback"]
    others = [i for i in queries if requests[i].klass != "fallback"]
    sample = sorted(set(fallback) | set(rng.sample(others, min(64, len(others)))))

    ref = checks.Reference(adj, inputs.weights.weights, source)
    shift = inputs.weights.shift
    walks = 0
    for i, req in enumerate(requests):
        if marks[i] is not None:
            resp = json.loads(responses[i])
            if resp.get("marked") != marks[i]:
                errors.append(f"request {i}: standing set {resp.get('marked')}, expected {marks[i]}")
        elif req.klass == "path":
            walks += 1
            errors += checks.check_walk(json.loads(responses[i]), edges, source, effective[i])
    passed = []
    for i in sample:
        resp = json.loads(responses[i])
        found = checks.check_answer(resp, ref, effective[i], shift)
        errors += [f"request {i}: {e}" for e in found]
        if not found:
            passed.append((resp, effective[i]))
    missed = checks.planted_fault_errors(adj, edges, source, h_edges, reinforced, ref, shift, passed)
    errors += [f"self-test: {e}" for e in missed]
    return {
        "definition_21_failures": len(failures),
        "answers_checked": len(sample),
        "fallback_answers_checked": len(fallback),
        "walks_checked": walks,
        "reference_failure_sets": len(ref.memo),
        "planted_faults_missed": len(missed),
    }


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    BUILD.mkdir(parents=True, exist_ok=True)
    (ROOT / ".bench_build" / "tmp").mkdir(exist_ok=True)
    tag = f"{workload}-{os.getpid()}"
    inputs = Inputs(workload, seed, BUILD / f"{tag}.stream.jsonl")
    warm = run_child(workload, deadline, "--setup-only")
    probes = [run_child(workload, deadline, "--setup-only") for _ in range(spec.SETUP_PROBES)]

    rounds, traced, errors, digests, failed = [], [], [], set(), 0
    checked = {}
    for index in range(spec.rounds(workload, seconds)):
        responses = str(BUILD / f"{tag}.responses.jsonl")
        structure = str(BUILD / f"{tag}.structure.json")
        flags = ["--stream", str(inputs.path), "--responses", responses,
                 "--snapshot", str(BUILD / f"{tag}.snap")]
        if index == 0:
            flags += ["--structure", structure]
        tracing_round = trace and index % 2 == 1
        if tracing_round:
            flags += ["--trace", str(BUILD / f"trace-{workload}-seed{seed}.json")]
        result = run_child(workload, deadline, *flags)
        (traced if tracing_round else rounds).append(result)
        lines, digest = read_responses(responses, result["pid"])
        digests.add(digest)
        failed += checks.ok_false_count(lines)
        errors += result["errors"]
        if len(lines) != len(inputs.requests) or result["requests"] != len(inputs.requests):
            errors.append(f"{len(lines)} responses to {len(inputs.requests)} requests")
        elif index == 0:
            checked = deep_checks(inputs, result, lines, structure, errors)
            os.unlink(structure)
        os.unlink(responses)
    for path in (inputs.path, Path(str(inputs.path) + ".classes")):
        path.unlink()
    if len(digests) != 1:
        errors.append("rounds answered the same requests differently")
    return summarize(workload, warm, probes, rounds, traced, errors, failed, checked)


def summarize(workload, warm, probes, rounds, traced, errors, failed, checked) -> dict:
    every = rounds + traced
    for key in ("backup_edges", "structure_edges", "structure_digest", "snapshot_bytes"):
        if len({r[key] for r in every}) != 1:
            errors.append(f"{key} differs between rounds of the same inputs")

    def mid(key, sub=None):
        return median(r[key] if sub is None else r[key][sub] for r in rounds)

    first = rounds[0]
    metrics = {
        "setup_s": median([p["setup_s"] for p in probes] + [r["setup_s"] for r in every]),
        "build_s": mid("build_s"),
        "verify_s": median(v for r in rounds for v in r["verify_s"]),
        "oracle_build_s": median(v for r in rounds for v in r["oracle_build_s"]),
        "pipeline_s": mid("pipeline_s"),
        "backup_edges": first["backup_edges"],
        "structure_edges": first["structure_edges"],
        "snapshot_mib": first["snapshot_bytes"] / 2**20,
        "peak_rss_mib": mid("peak_rss_kib") / 1024,
        "query_rps": median(r["requests"] / r["stream_s"] for r in rounds),
        "query_p50_us": mid("latency_us", "all_p50"),
        "query_p99_us": mid("latency_us", "all_p99"),
    }
    info = dict(
        first["info"],
        workload=workload,
        rounds=len(rounds),
        traced_rounds=len(traced),
        setup_samples=len(probes) + len(every),
        warm_kernel_compiles=warm["kernel_compiles"],
        timed_kernel_compiles=sum(r["kernel_compiles"] for r in every),
        checks=checked,
        structure_digest=first["structure_digest"],
        oracle_stats=first["oracle_stats"],
        requests_per_round=first["requests"],
        speed_probes=[r["probes"] for r in rounds],
        probe_mean_ms=[round(r["probe_mean_s"] * 1e3, 4) for r in rounds],
        unscaled={k: median(r["raw"][k] for r in rounds) for k in first["raw"]},
    )
    if traced:
        info["engines_used"] = traced[0]["info"].get("engines_used", {})
    out = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in every),
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "info": info,
    }
    if traced:
        out["layers"] = layer_metrics(rounds, traced)
    return out


def layer_metrics(rounds, traced) -> dict:
    layers = {name: median(t["layers"][name] for t in traced) for name in traced[0]["layers"]}
    layers["engine.kernel_compiles"] = sum(r["kernel_compiles"] for r in rounds + traced)
    # Per-class latencies come from the untraced rounds (scaled, like
    # query_p50_us): the query wrappers would add to every request.
    for klass in spec.REQUEST_CLASSES:
        for q in ("p50", "p99"):
            layers[f"query.{klass}_{q}_us"] = median(r["latency_us"][f"{klass}_{q}"] for r in rounds)
    layers["trace.overhead_s"] = median(t["pipeline_s"] for t in traced) - median(
        r["pipeline_s"] for r in rounds
    )
    return layers


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def declared(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m for m in json.load(fh)[section]}


def emit(summary: dict, trace: bool) -> dict:
    """Print the metric table, any failed check and the info line;
    return the declared metrics as ``{name: {value, unit}}``."""
    section = "per_layer" if trace else "end_to_end"
    values = summary["layers"] if trace else summary["metrics"]
    metrics = {}
    for name, meta in declared(section).items():
        metrics[name] = {"value": values[name], "unit": meta["unit"]}
        print(f"{name:36s} {values[name]:>16.6g} {meta['unit']}")
    for error in summary["errors"]:
        print(f"CHECK FAILED: {error}")
    print("info " + json.dumps(summary["info"], sort_keys=True))
    return metrics


def steady(workloads, repeat: int, first_seed: int, seconds: int) -> int:
    """Repeat each workload with fresh seeds; print median, quartiles and
    spread against each bound; counts and digests must repeat exactly."""
    bounds = declared("end_to_end")
    status = 0
    for workload in workloads:
        runs = []
        for seed in range(first_seed, first_seed + repeat):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
            runs.append((json.loads(lines[-1]), info))
        print(f"== {workload}: {repeat} runs, seeds {first_seed}..{first_seed + repeat - 1}")
        print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'/bound':>7s}")
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ratio = spread / meta["bound"]
            flag = "" if ratio <= 1 else "  OVER BOUND"
            if flag:
                status = 1
            print(f"{name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {meta['bound']:6.3f} {ratio:7.3f}{flag}")
            print(f"{'':18s} runs: " + " ".join(f"{v:.6g}" for v in values))
        shares = {r["failed"] / r["attempted"] for r, _ in runs}
        exact = {
            key: len({r["metrics"][key]["value"] for r, _ in runs}) == 1
            for key in ("backup_edges", "structure_edges", "snapshot_mib")
        }
        exact["structure_digest"] = len({i["structure_digest"] for _, i in runs}) == 1
        exact["correct"] = all(r["correct"] for r, _ in runs)
        print(f"failed share per run: {sorted(shares)}; exact repeats: {exact}")
        if len(shares) != 1 or not all(exact.values()):
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", help="|".join([*spec.WORKLOADS, "all"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true", help="repeat runs and print spreads")
    ap.add_argument("--repeat", type=int, default=10)
    args = ap.parse_args(argv)
    # On SIGTERM unwind through subprocess.run, which kills and reaps the
    # running round.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        seconds = args.seconds or json.load(fh)["run_seconds"]
    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in spec.WORKLOADS for n in names):
        ap.error(f"unknown workload {args.workload!r}")
    if args.steady:
        return steady(names, args.repeat, args.seed, seconds)
    try:
        summaries = [run_workload(n, args.seed, seconds, bool(args.trace)) for n in names]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for summary in summaries:
        prefix = "" if len(summaries) == 1 else summary["info"]["workload"] + "."
        if prefix:
            print(f"== {summary['info']['workload']}")
        for name, value in emit(summary, bool(args.trace)).items():
            metrics[prefix + name] = value
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
