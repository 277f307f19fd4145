"""Spans and counters around calls into each layer, from outside ``src/``.

:func:`install` rebinds the layer entry points (module functions, class
methods and the registered engine instances' primitives) to timing
wrappers inside the benchmark process.  A span records its name, its
parent and the pipeline phase it ran in; a layer's self time is its span
minus the time of the spans nested in it.  Engine primitives that return
lazy streams (``batched_shortest_paths``, ``weighted_failure_sweep``) or
sweep handles (``sweep``) are timed on every ``next()``/``failed()``
call, so work done while the consumer drains them lands on the engine.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Chrome trace events kept per run; later spans still count in the totals.
MAX_EVENTS = 50_000


class Span:
    __slots__ = ("name", "id", "parent", "phase")

    def __init__(self, name: str, sid: int, parent: Optional[int], phase: str) -> None:
        self.name = name
        self.id = sid
        self.parent = parent
        self.phase = phase


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        self.counts: Dict[str, int] = {}
        #: (phase, name) -> [total_s, self_s, calls]
        self.agg: Dict[Tuple[str, str], List[float]] = {}
        self.events: List[Tuple[str, float, float, int, Optional[int]]] = []
        self.dropped_events = 0
        self.engines_used: Dict[str, str] = {}
        self._stack: List[List[Any]] = []
        self._ids = 0
        self.origin = time.perf_counter()

    # -- spans ------------------------------------------------------------
    def nested_in(self, name: str) -> bool:
        """True when ``name`` is already the innermost open span (an
        inherited engine method calling its base: count it once)."""
        return bool(self._stack) and self._stack[-1][0].name == name

    def open(self, name: str) -> Span:
        parent = self._stack[-1][0].id if self._stack else None
        self._ids += 1
        span = Span(name, self._ids, parent, self.phase)
        row = self.agg.setdefault((span.phase, name), [0.0, 0.0, 0])
        row[2] += 1
        self.activate(span)
        return span

    def activate(self, span: Span) -> None:
        self._stack.append([span, time.perf_counter(), 0.0])

    def deactivate(self) -> None:
        span, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        row = self.agg[(span.phase, span.name)]
        row[0] += dur
        row[1] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if len(self.events) < MAX_EVENTS:
            self.events.append((span.name, start, dur, span.id, span.parent))
        else:
            self.dropped_events += 1

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    # -- reading ----------------------------------------------------------
    def total(self, name: str, phase: Optional[str] = None) -> float:
        return sum(r[0] for (p, n), r in self.agg.items() if n == name and phase in (None, p))

    def self_time(self, name: str, phase: Optional[str] = None) -> float:
        return sum(r[1] for (p, n), r in self.agg.items() if n == name and phase in (None, p))

    def calls(self, name: str) -> int:
        return int(sum(r[2] for (_, n), r in self.agg.items() if n == name))

    def layer_self_time(self) -> float:
        """Self time of every span but the pipeline stages that no layer
        metric reads (their self time is the benchmark's own glue)."""
        glue = ("pipeline", "oracle_build", "load", "serve")
        return sum(r[1] for (_, n), r in self.agg.items() if n not in glue)

    def write_chrome_trace(self, path) -> None:
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(dur * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": sid, "parent": parent},
            }
            for name, start, dur, sid, parent in self.events
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "otherData": {"counts": self.counts, "dropped_events": self.dropped_events},
                },
                fh,
            )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        return self.tracer.open(self.name)

    def __exit__(self, *exc) -> None:
        self.tracer.deactivate()


class _TimedIter:
    """Charges every ``next()`` of a lazy engine stream to its span."""

    def __init__(self, tracer: Tracer, span: Span, inner) -> None:
        self._tracer = tracer
        self._span = span
        self._inner = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.activate(self._span)
        try:
            return next(self._inner)
        finally:
            self._tracer.deactivate()


class _TimedHandle:
    """A sweep handle whose ``base_distances``/``failed`` calls are timed."""

    def __init__(self, tracer: Tracer, span: Span, inner) -> None:
        self._tracer = tracer
        self._span = span
        self._inner = inner

    def _timed(self, fn, *args):
        self._tracer.activate(self._span)
        try:
            return fn(*args)
        finally:
            self._tracer.deactivate()

    def base_distances(self):
        return self._timed(self._inner.base_distances)

    def failed(self, eid):
        return self._timed(self._inner.failed, eid)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def timed(tracer: Tracer, name: str, fn: Callable, *, after=None, lazy=None) -> Callable:
    """Wrap ``fn`` in a span; ``after(result, args)`` records counters,
    ``lazy`` (``_TimedIter``/``_TimedHandle``) keeps timing the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.nested_in(name):
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.deactivate()
        if after is not None:
            after(result, args)
        if lazy is not None:
            result = lazy(tracer, span, result)
        return result

    return wrapper


def counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Count calls without a span (for hot predicates)."""
    counts = tracer.counts
    counts.setdefault(name, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Rebind every layer entry point the per-layer metrics read."""
    import repro.core.construct as construct
    import repro.core.pcons as pcons
    from repro.core.interference import InterferenceIndex
    from repro.engine.registry import available_engines, get_engine
    from repro.oracle.query import QueryOracle
    from repro.spt.replacement import ReplacementEngine

    def pcons_counts(result, _args) -> None:
        tracer.count("pcons.pairs", result.stats.num_pairs)
        tracer.count("pcons.uncovered_pairs", result.stats.num_uncovered)
        tracer.count("pcons.detour_traversals", result.stats.num_detour_dijkstras)

    # Phase S1, S2 and the interference index are timed by the program
    # itself (ConstructStats.elapsed_seconds); only counts are added here.
    construct.run_pcons = timed(tracer, "pcons.run_pcons", construct.run_pcons, after=pcons_counts)
    pcons.build_spt = timed(tracer, "spt.build_spt", pcons.build_spt)
    InterferenceIndex.pi_intersects = counted(
        tracer, "interference.pi_intersects_calls", InterferenceIndex.pi_intersects
    )

    precompute = ReplacementEngine.precompute_all

    @functools.wraps(precompute)
    def precompute_all(self):
        before = self.stats().sweep_fills
        with tracer.span("spt.precompute_all"):
            precompute(self)
        tracer.count("spt.replacement_rows", self.stats().sweep_fills - before)

    ReplacementEngine.precompute_all = precompute_all

    for meth in ("dist_many", "path", "path_edges", "mark_down", "mark_up"):
        setattr(QueryOracle, meth, timed(tracer, "query.oracle", getattr(QueryOracle, meth)))

    for engine_name in available_engines():
        engine = get_engine(engine_name)
        for meth, lazy in (
            ("shortest_paths", None),
            ("batched_shortest_paths", _TimedIter),
            ("weighted_failure_sweep", _TimedIter),
            ("sweep", _TimedHandle),
        ):
            def seen(_result, _args, meth=meth, engine_name=engine_name):
                tracer.engines_used[meth] = engine_name

            setattr(
                engine,
                meth,
                timed(tracer, f"engine.{meth}", getattr(engine, meth), after=seen, lazy=lazy),
            )
