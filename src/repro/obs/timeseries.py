"""Time-resolved telemetry: ring-buffered series and the SeriesRecorder.

The base :class:`~repro.obs.recorder.Recorder` answers "how much, in
total?" — end-of-run counters, phase timers, five-number gauge
summaries.  This module answers "how did it get there?": per-round
dual-ascent convergence, per-tick protocol message/drop rates, rolling
serve throughput, live node census under churn.  Three pieces:

* :class:`Series` — one named ``(t, value)`` stream in a bounded ring
  buffer (``deque(maxlen=capacity)``).  Overflow evicts the *oldest*
  points and counts them in :attr:`Series.dropped`, mirroring the
  tracer's ring-buffer contract: a truncated series never pretends to
  be complete.  ``t`` is virtual time (simulator clock, dual-ascent
  round) — never wall clock — so series content is deterministic.
* :class:`SeriesConfig` — capacities, the counter-snapshot cadence,
  which counter prefixes to watch, histogram accuracy, and the optional
  snapshot file that ``repro monitor`` tails.
* :class:`SeriesRecorder` — a :class:`Recorder` whose
  ``series_point`` / ``series_mark`` / ``observe`` hooks actually do
  something.  ``series_enabled`` is ``True`` here and ``False``
  everywhere else; instrumented hot loops read that one attribute and
  skip all bookkeeping when telemetry is off.

Two kinds of series, declared per point:

* ``"sample"`` — point-in-time values (queue depth, dual objective,
  online-node census).  Plotted as-is.
* ``"counter"`` — cumulative monotone values (requests completed,
  messages sent).  The interesting signal is the windowed rate, which
  :func:`windowed_rates` derives; recording the cumulative value keeps
  the ring lossless under resampling.

Snapshot handoff (``repro monitor``) is file-based by design — no
sockets, no threads: :meth:`SeriesRecorder.write_snapshot` writes the
``repro-series/1`` artifact to ``<tmp>`` then ``os.replace``\\ s it over
the target (atomic on POSIX and Windows), wall-clock-throttled to at
most one write per ``snapshot_min_interval_s``.  The final write sets
``"final": true`` so the monitor knows to exit.  Throttling uses
``time.monotonic`` and never influences series *content*, so the
determinism contracts (byte-identical reports and artifacts) hold with
snapshots enabled.

Standard-library-only by contract (``stdlib_only`` in
``docs/layering.toml``).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.histogram import (
    DEFAULT_MAX_BUCKETS,
    DEFAULT_RELATIVE_ERROR,
    StreamingHistogram,
)
from repro.obs.recorder import Number, Recorder

#: Schema tag of the series artifact (dumped by :meth:`SeriesRecorder.
#: series_artifact`, written by ``--series``, tailed by ``repro
#: monitor``).
SERIES_SCHEMA = "repro-series/1"

#: Default ring capacity per series: 1024 points ≈ 16 KiB of floats,
#: bounded regardless of run length.
DEFAULT_CAPACITY = 1024

#: Counter prefixes watched by :meth:`SeriesRecorder.series_mark`.
DEFAULT_COUNTER_PREFIXES: Tuple[str, ...] = (
    "dual_ascent.",
    "protocol.",
    "faults.",
    "serve.",
    "sweep.",
    "adaptive.",
)


class Series:
    """One named time series in a bounded ring buffer.

    Points are ``(t, value)`` pairs appended in non-decreasing ``t``
    order by convention (virtual time only — the simulator clock,
    dual-ascent rounds, or request counts).  When the ring is full the
    oldest point is evicted and :attr:`dropped` incremented.
    """

    __slots__ = ("name", "kind", "capacity", "dropped", "_points")

    def __init__(
        self, name: str, kind: str = "sample", capacity: int = DEFAULT_CAPACITY
    ) -> None:
        if kind not in ("sample", "counter"):
            raise ValueError(f"series kind must be sample|counter, got {kind!r}")
        if capacity < 1:
            raise ValueError(f"series capacity must be >= 1, got {capacity}")
        self.name = name
        self.kind = kind
        self.capacity = capacity
        #: Points evicted by ring overflow (oldest-first).
        self.dropped = 0
        self._points: Deque[Tuple[float, float]] = deque(maxlen=capacity)

    def append(self, t: float, value: Number) -> None:
        """Record ``value`` at virtual time ``t``."""
        if len(self._points) == self.capacity:
            self.dropped += 1
        self._points.append((float(t), float(value)))

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> List[Tuple[float, float]]:
        """Retained points, oldest first."""
        return list(self._points)

    @property
    def last(self) -> Optional[Tuple[float, float]]:
        """Most recent ``(t, value)`` point, or ``None`` when empty."""
        return self._points[-1] if self._points else None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (deterministic: virtual-time content only)."""
        return {
            "kind": self.kind,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "points": [[t, v] for t, v in self._points],
        }


def windowed_rates(
    points: Sequence[Sequence[float]],
) -> List[Tuple[float, float]]:
    """Per-window rates ``Δvalue/Δt`` of a cumulative counter series.

    Input is the ``points`` list of a ``"counter"``-kind series
    (``[[t, cumulative], ...]``); output pairs each window's *end* time
    with its rate.  Zero-width windows are skipped (two marks at the
    same virtual instant carry no rate information).
    """
    rates: List[Tuple[float, float]] = []
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        dt = t1 - t0
        if dt > 0:
            rates.append((t1, (v1 - v0) / dt))
    return rates


@dataclass(frozen=True)
class SeriesConfig:
    """Knobs of a :class:`SeriesRecorder`.

    ``interval`` is in *virtual* time units of whatever loop calls
    :meth:`~SeriesRecorder.series_mark` (simulator seconds, dual-ascent
    rounds); ``snapshot_min_interval_s`` alone is wall clock, and only
    throttles file writes — never content.
    """

    #: Ring capacity per series.
    capacity: int = DEFAULT_CAPACITY
    #: Minimum virtual-time gap between counter snapshots taken by
    #: :meth:`SeriesRecorder.series_mark`.
    interval: float = 1.0
    #: Counters matching any of these prefixes are snapshotted into
    #: counter-kind series on every accepted mark.
    counter_prefixes: Tuple[str, ...] = DEFAULT_COUNTER_PREFIXES
    #: Relative-error bound α of the per-name streaming histograms fed
    #: by :meth:`SeriesRecorder.observe`.
    relative_error: float = DEFAULT_RELATIVE_ERROR
    #: Hard cap on live histogram buckets per name.
    max_buckets: int = DEFAULT_MAX_BUCKETS
    #: When set, :meth:`SeriesRecorder.maybe_snapshot` atomically writes
    #: the ``repro-series/1`` artifact here for ``repro monitor``.
    snapshot_path: Optional[str] = None
    #: Wall-clock throttle between snapshot writes (seconds).
    snapshot_min_interval_s: float = 0.25


@dataclass
class _MarkState:
    """Mutable mark/snapshot bookkeeping kept off the frozen config."""

    last_mark_t: Optional[float] = None
    last_counters: Dict[str, float] = field(default_factory=dict)
    last_write_monotonic: float = -1e18


class SeriesRecorder(Recorder):
    """A :class:`Recorder` that additionally keeps bounded time series
    and streaming histograms.

    Everything the base recorder does (counters, timers, gauges,
    manifest) is inherited unchanged; :meth:`dump` gains ``"series"``
    and ``"histograms"`` blocks.  Memory is bounded by construction:
    ``capacity`` points per series, ``max_buckets`` buckets per
    histogram — no O(requests) sample lists anywhere.
    """

    series_enabled: bool = True

    def __init__(self, config: Optional[SeriesConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else SeriesConfig()
        self._series: Dict[str, Series] = {}
        self._histograms: Dict[str, StreamingHistogram] = {}
        self._mark = _MarkState()

    # -- write side ----------------------------------------------------
    def series_point(
        self, name: str, t: float, value: Number, kind: str = "sample"
    ) -> None:
        """Append ``(t, value)`` to series ``name`` (created on first
        use with the configured capacity)."""
        series = self._series.get(name)
        if series is None:
            series = Series(name, kind=kind, capacity=self.config.capacity)
            self._series[name] = series
        series.append(t, value)
        self.maybe_snapshot()

    def series_mark(self, t: float) -> None:
        """Snapshot watched counters at virtual time ``t``.

        Accepted at most once per ``config.interval`` of virtual time;
        each accepted mark appends every counter matching
        ``config.counter_prefixes`` (cumulative value, counter-kind
        series) — including counters that stopped moving, so windowed
        rates correctly decay to zero.
        """
        last = self._mark.last_mark_t
        if last is not None and t - last < self.config.interval:
            return
        self._mark.last_mark_t = t
        prefixes = self.config.counter_prefixes
        for name, value in self._counters.items():
            if name.startswith(prefixes):
                self.series_point(name, t, value, kind="counter")

    def observe(self, name: str, value: Number) -> None:
        """Record one distribution sample: five-number gauge summary
        plus a memory-bounded streaming histogram."""
        self.gauge(name, value)
        hist = self._histograms.get(name)
        if hist is None:
            hist = StreamingHistogram(
                relative_error=self.config.relative_error,
                max_buckets=self.config.max_buckets,
            )
            self._histograms[name] = hist
        hist.add(float(value))

    # -- read side -----------------------------------------------------
    def series(self, name: str) -> Optional[Series]:
        """The named series, or ``None`` if never recorded."""
        return self._series.get(name)

    def series_names(self) -> List[str]:
        """Sorted names of all recorded series."""
        return sorted(self._series)

    def histogram(self, name: str) -> Optional[StreamingHistogram]:
        """The named histogram, or ``None`` if never observed."""
        return self._histograms.get(name)

    def dump(self) -> Dict[str, Any]:
        """Base dump plus ``"series"`` and ``"histograms"`` blocks."""
        data = super().dump()
        data["series"] = {
            name: self._series[name].to_dict() for name in sorted(self._series)
        }
        data["histograms"] = {
            name: self._histograms[name].to_dict()
            for name in sorted(self._histograms)
        }
        return data

    def series_artifact(self, final: bool = False) -> Dict[str, Any]:
        """The ``repro-series/1`` document: series + histograms + the
        run manifest, tagged ``final`` on the last write so ``repro
        monitor`` knows the run ended."""
        data = self.dump()
        return {
            "schema": SERIES_SCHEMA,
            "final": bool(final),
            "manifest": data["manifest"],
            "counters": data["counters"],
            "gauges": data["gauges"],
            "series": data["series"],
            "histograms": data["histograms"],
        }

    # -- snapshot handoff ----------------------------------------------
    def maybe_snapshot(self) -> bool:
        """Write the snapshot file if configured and the wall-clock
        throttle allows; returns whether a write happened.

        Purely an I/O side effect: never touches series content, so
        running with or without a snapshot path records byte-identical
        telemetry.
        """
        path = self.config.snapshot_path
        if path is None:
            return False
        now = time.monotonic()
        if now - self._mark.last_write_monotonic < self.config.snapshot_min_interval_s:
            return False
        self._mark.last_write_monotonic = now
        self.write_snapshot(path, final=False)
        return True

    def write_snapshot(self, path: str, final: bool = False) -> None:
        """Atomically write the ``repro-series/1`` artifact to ``path``
        (write to ``path + ".tmp"``, then ``os.replace``) — readers
        never observe a torn file."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.series_artifact(final=final), fh, sort_keys=True)
        os.replace(tmp, path)

    def finalize(self) -> None:
        """Write the final snapshot (``"final": true``) if configured;
        call once when the instrumented run completes."""
        if self.config.snapshot_path is not None:
            self.write_snapshot(self.config.snapshot_path, final=True)


def load_series_artifact(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a parsed ``repro-series/1`` document and return it.

    Raises ``ValueError`` on a missing or unknown schema tag — the
    monitor and tests use this instead of trusting arbitrary JSON.
    """
    schema = data.get("schema")
    if schema != SERIES_SCHEMA:
        raise ValueError(
            f"expected a {SERIES_SCHEMA} document, got schema={schema!r}"
        )
    return dict(data)
