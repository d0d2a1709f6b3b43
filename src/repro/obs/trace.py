"""Bounded structured event tracing with Chrome trace-event export.

Aggregate counters (the :class:`~repro.obs.recorder.Recorder`) answer
"how much"; this module answers "when, in what order" — the question
that actually debugs placement dynamics.  It records **spans** (phases
with a duration) and **instant events** (points in time) with typed
JSON-safe payloads into a fixed-capacity ring buffer, and exports them
as Chrome trace-event JSON that opens directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

Design goals, mirroring the recorder:

1. **Zero cost when off.**  The module-level default is a
   :class:`NullTracer` whose ``enabled`` flag is ``False``; instrumented
   hot paths fetch the tracer once per operation, guard any payload
   construction behind ``if trace.enabled:``, and otherwise pay a
   no-op method call.
2. **Bounded memory, explicit loss.**  Events land in a ring buffer of
   fixed ``capacity``; once full, the *oldest* events are overwritten
   and :attr:`Tracer.dropped` counts exactly how many were lost.  A
   trace never silently pretends to be complete: the drop counter is
   embedded in the export.
3. **Monotonic timestamps.**  Event times come from
   ``time.perf_counter()`` relative to the tracer's creation, in
   microseconds (the Chrome trace unit) — immune to wall-clock jumps.

Tracks (one Perfetto row each) group events by subsystem:
``dual_ascent`` (per-iteration dual values), ``commit`` (per-chunk
commits + cost-cache attribution), ``protocol`` (per-message Table II
events), ``sim``, ``solver``.

Usage::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        solve_distributed(problem)
    tracer.write("trace.json")        # open in Perfetto
"""

from __future__ import annotations

import json
import sys
from collections import deque
from time import perf_counter
from types import TracebackType
from typing import Any, Deque, Dict, Iterator, List, Optional, Type

from contextlib import contextmanager

from repro.obs.manifest import build_manifest

TRACE_SCHEMA = "repro-trace/1"

#: Default ring-buffer capacity (events).  A 100-node distributed
#: run emits a few tens of thousands of message events; the default
#: keeps the newest ~65k with an explicit drop count for the rest.
DEFAULT_CAPACITY = 65536

#: Chrome trace-event phase codes used here.
PH_COMPLETE = "X"
PH_INSTANT = "i"
PH_METADATA = "M"

_PID = 1


class TraceEvent:
    """One recorded event: an instant (``ph="i"``) or a span (``ph="X"``).

    ``ts`` and ``dur`` are microseconds on the tracer's monotonic clock;
    ``args`` is a JSON-safe payload dict (values: str/int/float/bool/
    lists thereof — the recorder of the event is responsible for keeping
    it serialisable; node ids are passed through ``str``).
    """

    __slots__ = ("name", "ph", "ts", "dur", "track", "args")

    def __init__(
        self,
        name: str,
        ph: str,
        ts: float,
        dur: float,
        track: str,
        args: Optional[Dict[str, Any]],
    ) -> None:
        self.name = name
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.track = track
        self.args = args

    def to_chrome(self, tid: int) -> Dict[str, Any]:
        """This event as a Chrome trace-event dict."""
        event: Dict[str, Any] = {
            "name": self.name,
            "ph": self.ph,
            "ts": self.ts,
            "pid": _PID,
            "tid": tid,
            "cat": self.track,
        }
        if self.ph == PH_COMPLETE:
            event["dur"] = self.dur
        elif self.ph == PH_INSTANT:
            event["s"] = "t"  # thread-scoped instant
        if self.args:
            event["args"] = self.args
        return event


class _Span:
    """Context manager recording one complete ("X") event on exit.

    Payload fields known only at the end of the phase are attached with
    :meth:`add` before the ``with`` block closes.
    """

    __slots__ = ("_tracer", "_name", "_track", "_args", "_start")

    _start: float

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        track: str,
        args: Optional[Dict[str, Any]],
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._track = track
        self._args = args

    def add(self, **fields: Any) -> None:
        """Merge ``fields`` into the span's payload."""
        if self._args is None:
            self._args = {}
        self._args.update(fields)

    def __enter__(self) -> "_Span":
        self._start = perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        end = perf_counter()
        tracer = self._tracer
        tracer._record(
            TraceEvent(
                self._name,
                PH_COMPLETE,
                (self._start - tracer._epoch) * 1e6,
                (end - self._start) * 1e6,
                self._track,
                self._args,
            )
        )


class _NullSpan:
    """Shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def add(self, **fields: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects :class:`TraceEvent` records into a bounded ring buffer.

    Attributes
    ----------
    enabled:
        ``True`` here, ``False`` on :class:`NullTracer` — hot paths use
        it to skip payload construction entirely when tracing is off.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._buffer: Deque[TraceEvent] = deque(maxlen=capacity)
        self._dropped = 0
        self._epoch = perf_counter()
        # track name -> Chrome tid, in first-use order.
        self._tracks: Dict[str, int] = {}

    # -- write side ----------------------------------------------------
    def instant(
        self,
        name: str,
        track: str = "main",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a point-in-time event."""
        self._record(
            TraceEvent(
                name,
                PH_INSTANT,
                (perf_counter() - self._epoch) * 1e6,
                0.0,
                track,
                args,
            )
        )

    def span(
        self,
        name: str,
        track: str = "main",
        args: Optional[Dict[str, Any]] = None,
    ) -> _Span:
        """A context manager recording ``name`` as a complete event."""
        return _Span(self, name, track, args)

    def _record(self, event: TraceEvent) -> None:
        buffer = self._buffer
        if len(buffer) == self._capacity:
            # deque(maxlen) evicts the oldest on append; account for it.
            self._dropped += 1
        buffer.append(event)

    # -- read side -----------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def dropped(self) -> int:
        """Events overwritten by ring-buffer wraparound (oldest first)."""
        return self._dropped

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._buffer)

    def track_id(self, track: str) -> int:
        """Stable Chrome ``tid`` for ``track`` (assigned on first use)."""
        tid = self._tracks.get(track)
        if tid is None:
            tid = len(self._tracks) + 1
            self._tracks[track] = tid
        return tid

    def export(self, manifest: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The trace as a Chrome trace-event JSON object.

        The ``traceEvents`` list opens directly in Perfetto /
        ``chrome://tracing``; ``otherData`` carries the run manifest
        (built fresh unless one is passed in) and the drop accounting.
        """
        events = self.events
        chrome: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": PH_METADATA,
                "ts": 0,
                "pid": _PID,
                "tid": 0,
                # The ring-buffer accounting rides on the process
                # metadata so it is visible inside Perfetto itself,
                # not only in ``otherData`` (which the UI hides).
                "args": {
                    "name": "repro",
                    "retained_events": len(events),
                    "dropped_events": self._dropped,
                },
            }
        ]
        # Register tracks in event order so tids are deterministic.
        for event in events:
            if event.track not in self._tracks:
                self.track_id(event.track)
        for track, tid in self._tracks.items():
            chrome.append(
                {
                    "name": "thread_name",
                    "ph": PH_METADATA,
                    "ts": 0,
                    "pid": _PID,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        chrome.extend(event.to_chrome(self._tracks[event.track]) for event in events)
        return {
            "traceEvents": chrome,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": TRACE_SCHEMA,
                "manifest": manifest if manifest is not None else build_manifest(),
                "capacity": self._capacity,
                "retained_events": len(events),
                "dropped_events": self._dropped,
            },
        }

    def to_json(self, manifest: Optional[Dict[str, Any]] = None) -> str:
        """:meth:`export` serialised as JSON."""
        return json.dumps(self.export(manifest), indent=1)

    def write(self, path: str, manifest: Optional[Dict[str, Any]] = None) -> None:
        """Write the Chrome trace JSON to ``path``.

        When the ring buffer overflowed, a one-line warning on stderr
        says how many of the oldest events were lost — a silent
        truncation would read as "the run started here".
        """
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(manifest))
            handle.write("\n")
        if self._dropped > 0:
            print(
                f"warning: trace ring buffer overflowed — dropped the "
                f"{self._dropped} oldest event(s) of "
                f"{self._dropped + len(self._buffer)} recorded "
                f"(capacity {self._capacity})",
                file=sys.stderr,
            )


class NullTracer(Tracer):
    """The default tracer: accepts everything, records nothing.

    ``enabled`` is ``False`` so instrumented code skips payload
    construction; ``instant`` is empty and ``span`` returns one shared
    no-op context manager.
    """

    enabled = False

    def instant(
        self,
        name: str,
        track: str = "main",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        pass

    def span(  # type: ignore[override]
        self,
        name: str,
        track: str = "main",
        args: Optional[Dict[str, Any]] = None,
    ) -> _NullSpan:
        return _NULL_SPAN


_DEFAULT = NullTracer(capacity=1)
_active: Tracer = _DEFAULT


def get_tracer() -> Tracer:
    """The currently active tracer (a :class:`NullTracer` by default)."""
    return _active


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the active one; ``None`` restores the no-op
    default.  Returns the previously active tracer."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else _DEFAULT
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Activate ``tracer`` for the ``with`` block, then restore."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
