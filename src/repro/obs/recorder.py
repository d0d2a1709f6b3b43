"""The observability substrate: counters, phase timers, gauges.

Every performance claim in this repository should trace back to a
:class:`Recorder` dump rather than an ad-hoc ``time.perf_counter()``
pair.  The design goals, in order:

1. **Zero cost when off.**  The module-level default recorder is a
   :class:`NullRecorder` whose methods are empty and whose timers are a
   single shared no-op context manager; instrumented hot paths fetch the
   active recorder once per operation (not per loop iteration) and pay a
   handful of no-op method calls per solve.
2. **Hierarchical phase timers.**  ``with recorder.timer("dual_ascent"):``
   nested inside ``with recorder.timer("solve_approximation"):`` records
   under the path ``solve_approximation/dual_ascent`` — the call tree
   falls out of lexical nesting, no registration needed.
3. **Machine readable.**  :meth:`Recorder.dump` returns a plain dict of
   JSON-safe values (``to_json`` serialises it); ``bench/run.py``
   derives its per-layer metrics from these dumps.
4. **Self-describing.**  Every dump carries a run manifest (python /
   platform / git SHA, plus whatever the caller attached via
   :meth:`Recorder.annotate` — seed, scenario parameters) so a dump on
   disk still says what produced it; see :mod:`repro.obs.manifest`.

Single-threaded by design, matching the rest of the reproduction: the
active-recorder global and the timer stack are not locked.

Usage::

    from repro.obs import Recorder, use_recorder

    rec = Recorder()
    with use_recorder(rec):
        placement = solve_approximation(problem)
    print(rec.render())          # human-readable dump
    data = rec.dump()            # {"counters", "timers", "gauges", "manifest"}
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from types import TracebackType
from typing import Any, Dict, Iterator, List, Optional, Type, Union

from repro.obs.manifest import build_manifest

Number = Union[int, float]


class _Timer:
    """Context manager measuring one phase; created by :meth:`Recorder.timer`."""

    __slots__ = ("_recorder", "_name", "_start")

    _start: float

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_Timer":
        self._recorder._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        elapsed = time.perf_counter() - self._start
        self._recorder._pop(elapsed)


class _NullTimer:
    """Shared do-nothing timer handed out by :class:`NullRecorder`."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


_NULL_TIMER = _NullTimer()


class Recorder:
    """Collects named counters, hierarchical phase timers, and gauges.

    * **Counters** (:meth:`count`) — monotone sums, e.g. dual-ascent
      rounds, cost-cache hits, delivered messages.
    * **Timers** (:meth:`timer`) — wall-clock per phase; nesting builds
      ``/``-joined paths.  Each path tracks total seconds, call count,
      and the per-call min/max, so worst-case latency is visible, not
      just the totals.
    * **Gauges** (:meth:`gauge`) — point-in-time samples (queue depths,
      per-node loads); each name tracks last/min/max/mean/count so a
      whole distribution summarises into five numbers.

    The streaming-telemetry surface (:meth:`series_point`,
    :meth:`series_mark`, :meth:`observe`, :attr:`series_enabled`) is
    declared here as a no-op so every instrumented call site stays
    valid against any recorder; only
    :class:`~repro.obs.timeseries.SeriesRecorder` implements it.  Hot
    loops guard the calls behind ``if obs.series_enabled:`` — one
    attribute read when telemetry is off, mirroring the tracer's
    ``enabled`` contract.
    """

    #: ``True`` only on :class:`~repro.obs.timeseries.SeriesRecorder`;
    #: hot paths use it to skip series bookkeeping entirely.
    series_enabled: bool = False

    def __init__(self) -> None:
        self._counters: Dict[str, Number] = {}
        # path -> [total_seconds, calls, min_seconds, max_seconds]
        self._timers: Dict[str, List[Number]] = {}
        # name -> [last, min, max, sum, count]
        self._gauges: Dict[str, List[Number]] = {}
        self._stack: List[str] = []
        # Run provenance: creation time is pinned here so repeated
        # dumps of one recorder carry an identical manifest.
        self._created_unix: float = time.time()
        self._annotations: Dict[str, Any] = {}

    # -- write side ----------------------------------------------------
    def count(self, name: str, n: Number = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + n

    def timer(self, name: str) -> _Timer:
        """A context manager timing one phase named ``name``."""
        return _Timer(self, name)

    def gauge(self, name: str, value: Number) -> None:
        """Record one sample of gauge ``name``."""
        stat = self._gauges.get(name)
        if stat is None:
            self._gauges[name] = [value, value, value, value, 1]
            return
        stat[0] = value
        if value < stat[1]:
            stat[1] = value
        if value > stat[2]:
            stat[2] = value
        stat[3] += value
        stat[4] += 1

    def series_point(
        self, name: str, t: float, value: Number, kind: str = "sample"
    ) -> None:
        """Record one ``(t, value)`` point of time series ``name``.

        A no-op on the base recorder (and on :class:`NullRecorder`);
        :class:`~repro.obs.timeseries.SeriesRecorder` appends it to a
        bounded ring series.  ``kind`` is ``"sample"`` for point-in-time
        values and ``"counter"`` for cumulative values whose windowed
        rate is the interesting signal.
        """

    def series_mark(self, t: float) -> None:
        """Cadence hook: snapshot watched counters at virtual time ``t``.

        A no-op here; :class:`~repro.obs.timeseries.SeriesRecorder`
        snapshots every counter matching its configured prefixes into
        counter-kind series, at most once per configured interval.
        """

    def observe(self, name: str, value: Number) -> None:
        """Record one distribution sample of ``name``.

        The base recorder folds it into the five-number :meth:`gauge`
        summary; :class:`~repro.obs.timeseries.SeriesRecorder`
        additionally feeds a memory-bounded
        :class:`~repro.obs.histogram.StreamingHistogram` so quantiles
        survive without keeping the raw samples.
        """
        self.gauge(name, value)

    def annotate(self, **fields: Any) -> None:
        """Attach run-provenance fields (seed, scenario parameters, ...)
        to the manifest of every subsequent :meth:`dump`."""
        self._annotations.update(fields)

    def reset(self) -> None:
        """Drop all recorded data (the timer stack must be empty).

        Manifest annotations survive: they describe the run, not the
        measurements."""
        self._counters.clear()
        self._timers.clear()
        self._gauges.clear()
        self._stack.clear()

    # -- timer internals ------------------------------------------------
    def _push(self, name: str) -> None:
        self._stack.append(name)

    def _pop(self, elapsed: float) -> None:
        path = "/".join(self._stack)
        self._stack.pop()
        stat = self._timers.get(path)
        if stat is None:
            self._timers[path] = [elapsed, 1, elapsed, elapsed]
        else:
            stat[0] += elapsed
            stat[1] += 1
            if elapsed < stat[2]:
                stat[2] = elapsed
            if elapsed > stat[3]:
                stat[3] = elapsed

    # -- read side -------------------------------------------------------
    @property
    def active_phase(self) -> Optional[str]:
        """The ``/``-joined path of the currently open timers, if any."""
        return "/".join(self._stack) if self._stack else None

    def counter(self, name: str) -> Number:
        """Current value of counter ``name`` (0 if never counted)."""
        return self._counters.get(name, 0)

    def timer_seconds(self, path: str) -> float:
        """Total seconds recorded under timer ``path`` (0.0 if absent)."""
        stat = self._timers.get(path)
        return float(stat[0]) if stat is not None else 0.0

    def dump(self) -> Dict[str, Any]:
        """All recorded data as a JSON-safe dict.

        Schema::

            {"counters": {name: number},
             "timers":   {path: {"seconds","calls","min","max","mean"}},
             "gauges":   {name: {"last","min","max","mean","count"}},
             "manifest": {"schema","python","platform","git_sha",
                          "created_unix", <annotate() fields>}}
        """
        return {
            "counters": dict(sorted(self._counters.items())),
            "timers": {
                path: {
                    "seconds": stat[0],
                    "calls": stat[1],
                    "min": stat[2],
                    "max": stat[3],
                    "mean": stat[0] / stat[1],
                }
                for path, stat in sorted(self._timers.items())
            },
            "gauges": {
                name: {
                    "last": stat[0],
                    "min": stat[1],
                    "max": stat[2],
                    "mean": stat[3] / stat[4],
                    "count": stat[4],
                }
                for name, stat in sorted(self._gauges.items())
            },
            "manifest": build_manifest(
                created_unix=self._created_unix, **self._annotations
            ),
        }

    def to_json(self, indent: int = 2) -> str:
        """:meth:`dump` serialised as JSON."""
        return json.dumps(self.dump(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human-readable dump: timers as an indented call tree, then
        counters and gauge summaries."""
        lines: List[str] = []
        data = self.dump()
        if data["timers"]:
            lines.append("timers (seconds x calls, max per call):")
            for path, stat in data["timers"].items():
                depth = path.count("/")
                label = path.rsplit("/", 1)[-1]
                lines.append(
                    f"  {'  ' * depth}{label:<24} "
                    f"{stat['seconds']:>10.4f}  x{stat['calls']}"
                    f"  (max {stat['max']:.4f})"
                )
        if data["counters"]:
            lines.append("counters:")
            for name, value in data["counters"].items():
                lines.append(f"  {name:<40} {value}")
        if data["gauges"]:
            lines.append("gauges (last/min/max/mean/count):")
            for name, stat in data["gauges"].items():
                lines.append(
                    f"  {name:<40} {stat['last']}/{stat['min']}/"
                    f"{stat['max']}/{stat['mean']:.2f}/{stat['count']}"
                )
        return "\n".join(lines) if lines else "(recorder is empty)"


class NullRecorder(Recorder):
    """The default recorder: accepts everything, records nothing.

    All write methods are empty and :meth:`timer` returns one shared
    no-op context manager, so instrumentation costs a few dozen
    nanoseconds per call site when observability is off.
    """

    def count(self, name: str, n: Number = 1) -> None:  # noqa: D102
        pass

    def timer(self, name: str) -> _NullTimer:  # type: ignore[override]
        return _NULL_TIMER

    def gauge(self, name: str, value: Number) -> None:  # noqa: D102
        pass

    def observe(self, name: str, value: Number) -> None:  # noqa: D102
        pass

    def annotate(self, **fields: Any) -> None:  # noqa: D102
        pass


_DEFAULT = NullRecorder()
_active: Recorder = _DEFAULT


def get_recorder() -> Recorder:
    """The currently active recorder (a :class:`NullRecorder` by default)."""
    return _active


def set_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Install ``recorder`` as the active one; ``None`` restores the no-op
    default.  Returns the previously active recorder."""
    global _active
    previous = _active
    _active = recorder if recorder is not None else _DEFAULT
    return previous


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Activate ``recorder`` for the ``with`` block, then restore."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
