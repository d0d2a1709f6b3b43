"""The traced run: per-layer self time and counters for one operation.

:func:`installed` wraps the public entry point of every layer (the table
below) for the duration of a ``with`` block and restores the originals
afterwards.  Most call sites bind these names with ``from … import``, so
a wrapper patches the *caller's* module attribute (or the class
attribute, for methods).  Each wrapped call becomes a span in a private
:class:`~repro.obs.trace.Tracer` (never installed globally) that names
its parent; per-call hot functions (replica selection, request-batch
generation) are aggregated into a count and a total instead.

Self time is a span's duration minus the time of its children, spans and
aggregated calls alike, so the self times of all layers plus the
benchmark's own glue add up to the traced wall.  The per-layer metrics
report each layer's self time as a share of that wall; absolute seconds
are in the results file and the Chrome trace.

:func:`traced_run` also measures what instrumentation costs: the same
operation under ``NullRecorder``, ``Recorder``, and ``SeriesRecorder``
plus a global ``Tracer``, and under these wrappers.  Every one of those
operations must produce the same bytes.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro import random_problem, solve_approximation
from repro.distributed.messages import ALL_TYPES as MESSAGE_TYPES
from repro.obs import (
    Recorder,
    SeriesRecorder,
    Tracer,
    use_recorder,
    use_tracer,
)

#: Span wrappers: (module, attribute or Class.method, layer).
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.scenarios", "connected_random_network",
     "graphs.build"),
    ("repro.core.approximation", "build_confl_instance", "core.confl.build"),
    ("repro.online.controller", "build_confl_instance", "core.confl.build"),
    ("repro.core.approximation", "dual_ascent", "core.dual_ascent"),
    ("repro.online.controller", "dual_ascent", "core.dual_ascent"),
    ("repro.core.approximation", "commit_chunk", "core.commit"),
    ("repro.online.controller", "commit_chunk", "core.commit"),
    ("repro.distributed.protocol", "commit_chunk", "core.commit"),
    ("repro.core.commit", "nearest_server_assignment",
     "core.commit.assignment"),
    ("repro.adaptive.moves", "nearest_server_assignment",
     "core.commit.assignment"),
    ("repro.core.commit", "steiner_tree", "graphs.steiner"),
    ("repro.adaptive.moves", "steiner_tree", "graphs.steiner"),
    ("repro.distributed.protocol", "ChunkSession.__init__",
     "distributed.protocol"),
    ("repro.distributed.protocol", "ChunkSession.run",
     "distributed.protocol"),
    ("repro.distributed.simulator", "Simulator.run",
     "distributed.simulator"),
    ("repro.serve.engine", "ServeEngine.__init__", "serve.engine.init"),
    ("repro.serve.engine", "ServeEngine.run", "serve.engine.replay"),
    ("repro.serve.engine", "build_report", "serve.stats.build_report"),
    ("repro.adaptive.controller", "AdaptiveController.run",
     "adaptive.controller"),
    ("repro.adaptive.controller", "solve_approximation",
     "adaptive.bootstrap"),
    ("repro.adaptive.controller", "reoptimize_chunk", "adaptive.resolve"),
    ("repro.adaptive.moves", "MoveEvaluator.try_move", "adaptive.moves"),
)

#: Per-call hot functions, aggregated: (module, Class.method, layer).
CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.selection", "CheapestCost.choose", "serve.selection"),
    ("repro.serve.selection", "LeastLoaded.choose", "serve.selection"),
    ("repro.serve.selection", "PowerOfTwoChoices.choose", "serve.selection"),
)

#: Generator methods whose every ``next()`` is aggregated.
BATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.workloads", "Workload.stream_batches",
     "serve.workloads.gen"),
)

#: The benchmark's own spans: the traced set-up and operation.
SETUP_SPAN = "bench.setup"
OP_SPAN = "bench.op"

#: Every layer with a ``<layer>.self_pct`` metric, in report order.
LAYERS = tuple(dict.fromkeys(
    [layer for _, _, layer in SPANS + CALLS + BATCHES]
))
AGGREGATED = tuple(dict.fromkeys([layer for _, _, layer in CALLS + BATCHES]))

#: Network sizes of the growth-exponent solves (the Fig. 5 analogue).
GROWTH_NODES = (100, 200)


class LayerTrace:
    """Spans and aggregated calls with running self-time arithmetic.

    :meth:`enter` / :meth:`exit` / :meth:`add_call` take explicit
    timestamps so the arithmetic can be checked on synthetic spans;
    :meth:`span` drives them from ``perf_counter`` and also records a
    Chrome event carrying the parent's name and the self time.
    """

    def __init__(self, capacity: int = 1 << 20) -> None:
        self.tracer = Tracer(capacity=capacity)
        self._stack: List[List[Any]] = []  # [name, start, child seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: Requests drawn from request streams, skipped ones included.
        self.drawn_requests = 0

    def enter(self, name: str, now: float) -> None:
        self._stack.append([name, now, 0.0])

    def exit(self, now: float) -> float:
        """Close the innermost span; returns its self time."""
        name, start, children = self._stack.pop()
        duration = now - start
        own = duration - children
        if self._stack:
            self._stack[-1][2] += duration
        self.self_s[name] += own
        self.total_s[name] += duration
        self.calls[name] += 1
        self.durations[name].append(duration)
        return own

    def add_call(self, name: str, seconds: float) -> None:
        """One aggregated call of ``seconds``, a child of the open span."""
        if self._stack:
            self._stack[-1][2] += seconds
        self.self_s[name] += seconds
        self.total_s[name] += seconds
        self.calls[name] += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        args = {"parent": self._stack[-1][0] if self._stack else ""}
        with self.tracer.span(name, track=name.split(".")[0],
                              args=args) as event:
            self.enter(name, perf_counter())
            try:
                yield
            finally:
                event.add(self_us=self.exit(perf_counter()) * 1e6)

    def finish(self) -> None:
        """Record each aggregated layer as one summary event."""
        for name in AGGREGATED:
            if self.calls[name]:
                self.tracer.instant(
                    name, track=name.split(".")[0],
                    args={"aggregated_calls": self.calls[name],
                          "total_s": self.total_s[name]},
                )


def _spanned(trace: LayerTrace, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with trace.span(layer):
            return fn(*args, **kwargs)
    return wrapper


def _counted(trace: LayerTrace, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            trace.add_call(layer, perf_counter() - start)
    return wrapper


def _batched(trace: LayerTrace, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def timed():
            while True:
                start = perf_counter()
                batch = next(inner, None)
                trace.add_call(layer, perf_counter() - start)
                if batch is None:
                    return
                trace.drawn_requests += len(batch[0])
                yield batch
        return timed()
    return wrapper


def _owner(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def installed(trace: LayerTrace) -> Iterator[LayerTrace]:
    """Patch every wrapper of the tables in; restore them all on exit."""
    patches: List[Tuple[Any, str, Any]] = []
    try:
        for table, make in ((SPANS, _spanned), (CALLS, _counted),
                            (BATCHES, _batched)):
            for module, path, layer in table:
                owner, attr = _owner(module, path)
                # vars(): a class attribute must be the class's own, so
                # restoring it puts back exactly what was there.
                original = vars(owner)[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, make(trace, layer, original))
        yield trace
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def growth_exponents(seed: int) -> Dict[str, float]:
    """Log-log slopes of Appx wall and dual-ascent time between sizes."""
    walls, dual = [], []
    for nodes in GROWTH_NODES:
        problem, _ = random_problem(nodes, seed=seed)
        recorder = Recorder()
        with use_recorder(recorder):
            start = perf_counter()
            solve_approximation(problem)
            walls.append(perf_counter() - start)
        dual.append(recorder.timer_seconds("solve_approximation/dual_ascent"))
    scale = math.log(GROWTH_NODES[1] / GROWTH_NODES[0])
    return {
        "core.approximation.growth_exp": math.log(walls[1] / walls[0]) / scale,
        "core.dual_ascent.growth_exp": math.log(dual[1] / dual[0]) / scale,
    }


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole


def layer_metrics(trace: LayerTrace, dump: Dict[str, Any], wall: float,
                  walls: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced set-up plus operation.

    ``dump`` is the traced :class:`Recorder`'s dump; ``walls`` holds the
    operation's wall under each instrumentation setting.
    """
    counters = dump["counters"]
    gauges = dump["gauges"]

    def counter(name: str) -> float:
        return float(counters.get(name, 0))

    def gauge_max(name: str) -> float:
        return float(gauges[name]["max"]) if name in gauges else 0.0

    untraced = walls["untraced"]
    glue = trace.self_s[SETUP_SPAN] + trace.self_s[OP_SPAN]
    hits = counter("costs.row_cache_hits")
    builds = counter("costs.row_builds")
    served = counter("serve.requests")
    drawn = float(trace.drawn_requests)
    dual = trace.durations.get("core.dual_ascent", [])
    metrics = {
        "bench.traced_wall_s": wall,
        "bench.layer_coverage_pct": _pct(wall - glue, wall),
        "bench.trace_overhead_pct": _pct(walls["traced"] - untraced,
                                         untraced),
        "bench.trace_dropped": float(trace.tracer.dropped),
        "obs.overhead.recorder_pct": _pct(walls["recorder"] - untraced,
                                          untraced),
        "obs.overhead.series_trace_pct": _pct(walls["series_trace"]
                                              - untraced, untraced),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = _pct(trace.self_s[layer], wall)
    metrics.update({
        "graphs.steiner_calls": float(trace.calls["graphs.steiner"]),
        "core.costs.row_builds": builds,
        "core.costs.incremental_patches": counter("costs.incremental_patches"),
        "core.costs.row_cache_hits": hits,
        "core.costs.tree_rebuilds": counter("costs.tree_rebuilds"),
        "core.costs.full_rebuilds": counter("costs.full_rebuilds"),
        "core.costs.row_hit_ratio": hits / (hits + builds) if builds else 0.0,
        "core.dual_ascent.chunk_p50_s": statistics.median(dual) if dual
        else 0.0,
        "core.dual_ascent.rounds": counter("dual_ascent.rounds"),
        "core.dual_ascent.event_loops": counter("dual_ascent.event_loops"),
        "core.dual_ascent.tight_events": counter("dual_ascent.tight_events"),
        "core.commit.copies": counter("commit.copies"),
        "distributed.simulator.events": counter("sim.events"),
        "distributed.simulator.max_queue_depth":
            gauge_max("sim.max_queue_depth"),
        "distributed.ticks": counter("dist.ticks"),
    })
    for kind in MESSAGE_TYPES:
        metrics[f"distributed.msgs.{kind}"] = counter(f"dist.messages.{kind}")
    metrics.update({
        "serve.workloads.batches": float(
            trace.calls["serve.workloads.gen"]
        ),
        "serve.workloads.drawn_requests": drawn,
        "serve.workloads.unserved_draws": drawn - served,
        "serve.workloads.useful_draw_ratio": served / drawn if drawn else 0.0,
        "serve.engine.table_entries": counter("serve.batch.table_entries"),
        "serve.engine.heap_peak": gauge_max("serve.batch.heap_peak"),
        "serve.engine.failovers": counter("serve.failovers"),
        "serve.selection.calls": float(trace.calls["serve.selection"]),
        "adaptive.moves_considered": counter("adaptive.moves_considered"),
        "adaptive.moves_accepted": counter("adaptive.moves_accepted"),
        "adaptive.resolves": counter("adaptive.resolves"),
        "adaptive.resolves_reverted": counter("adaptive.resolves_reverted"),
    })
    return metrics


def traced_run(workload, seed: int, golden: Dict[str, Any],
               probe=None) -> Tuple[Dict[str, Any], Tracer]:
    """Overhead operations, then one traced set-up plus operation."""
    from run import Checker, run_probe
    from workloads import GOLDEN_SEED

    checker = Checker(
        workload.name, golden.get("pool") if seed == GOLDEN_SEED else None
    )
    inputs = workload.setup(seed)[0]
    checker.run(workload, inputs, 0)  # warm-up
    walls: Dict[str, float] = {}
    walls["untraced"], _ = checker.run(workload, inputs, 0)
    with use_recorder(Recorder()):
        walls["recorder"], _ = checker.run(workload, inputs, 0)
    with use_recorder(SeriesRecorder()), use_tracer(Tracer()):
        walls["series_trace"], _ = checker.run(workload, inputs, 0)

    trace = LayerTrace()
    recorder = Recorder()
    with use_recorder(recorder), installed(trace):
        with trace.span(SETUP_SPAN):
            inputs = workload.setup(seed)[0]
        walls["traced"], _ = checker.run(workload, inputs, 0,
                                         around=trace.span(OP_SPAN))
    trace.finish()
    wall = trace.total_s[SETUP_SPAN] + trace.total_s[OP_SPAN]
    probe_digest = (
        run_probe(probe, golden.get("probe"), checker) if probe else None
    )

    metrics = layer_metrics(trace, recorder.dump(), wall, walls)
    metrics.update(growth_exponents(seed))
    result = {
        "workload": workload.name,
        "seed": seed,
        "params": workload.params,
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value}
                    for name, value in sorted(metrics.items())},
        "walls": walls,
        "layers": {
            name: {"self_s": trace.self_s[name],
                   "total_s": trace.total_s[name],
                   "calls": trace.calls[name]}
            for name in sorted(trace.calls)
        },
        "counters": recorder.dump()["counters"],
        "digests": [checker.digests[i] for i in sorted(checker.digests)],
        "probe_digest": probe_digest,
    }
    return result, trace.tracer
