"""A small deterministic discrete-event simulator.

The distributed algorithm (Sec. IV-C) is "basically event driven": nodes
react to received control messages and to their own bidding clock.  This
module provides the engine: a priority queue of timestamped events with a
monotone sequence number as tie-breaker, so runs are exactly reproducible.

:meth:`Simulator.schedule_batch` queues several handlers as one heap
entry that runs them back to back, in the order given.  It behaves
exactly like scheduling each of them in turn with the same delay: such
events take consecutive sequence numbers, so nothing else can fire
between them.  Every handler of a batch counts as one event toward
``events_processed``, the ``sim.events`` counter, the ``max_events``
guard and the live depth behind ``max_queue_depth``.

:meth:`Simulator.schedule_column` is the data-only form of a batch: one
heap entry holding ``receivers`` and ``values`` plus one ``apply``
function, which is handed the items in the order given.  Each item
counts as one event, exactly like a batch handler.  A column entry
lowers the live depth by all its items at once, before ``apply`` runs;
that is exact only because an apply must schedule and cancel nothing
(the Dist flood updates never do), so no handler could observe the
depth in between.  Under ``REPRO_SANITIZE=1`` the simulator checks
that every column apply leaves the queue as it found it.

The simulator knows nothing about networks or caching — it schedules
callables.  :mod:`repro.distributed.protocol` builds the message-passing
layer on top.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Sequence

from repro.analysis import contracts
from repro.errors import SimulationError
from repro.obs import get_recorder, get_tracer

Handler = Callable[[], None]
#: Applies a column's items: ``apply(receivers, values)``, in order.
ColumnApply = Callable[[Sequence[Any], Sequence[Any]], None]

# A queued event is a plain list ``[time, seq, handler, cancelled, fired,
# batch]``: heapq orders it by (time, seq) in C, and the unique seq means
# the rest is never compared.  A list, not a tuple, so a handle can flag
# it in place.  ``batch`` is None for a single event; for a batch entry it
# is the list of handlers and ``handler`` is None; for a column entry it
# is the ``(receivers, values)`` pair and ``handler`` is the apply.
_Event = List[Any]
_TIME = 0
_SEQ = 1
_HANDLER = 2
_CANCELLED = 3
_FIRED = 4
_BATCH = 5


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: _Event, sim: "Simulator") -> None:
        self._event = event
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event if it has not fired yet."""
        event = self._event
        if not event[_CANCELLED] and not event[_FIRED]:
            event[_CANCELLED] = True
            self._sim._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return bool(self._event[_CANCELLED])


class Simulator:
    """Deterministic discrete-event loop.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    #: Absolute times within this relative tolerance of "now" are clamped
    #: to "now" by :meth:`schedule_at` — float-rounding residue from
    #: chained time arithmetic, not a genuine attempt to rewrite history.
    PAST_TOLERANCE = 1e-9

    def __init__(self) -> None:
        self._queue: List[_Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._max_queue_depth = 0
        # Cancelled heap entries still queued, and the handlers still due
        # to run (a batch entry holds several).
        self._cancelled = 0
        self._live = 0
        self._sanitize = contracts.sanitize_enabled()

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of handlers executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of queued (non-cancelled) handlers."""
        return self._live

    @property
    def max_queue_depth(self) -> int:
        """High-water mark of live (non-cancelled) queued handlers."""
        return self._max_queue_depth

    @staticmethod
    def _reject_delay(delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        raise SimulationError(f"event delay must be finite, got {delay}")

    def schedule(self, delay: float, handler: Handler) -> EventHandle:
        """Schedule ``handler`` to run ``delay`` time units from now."""
        if not 0 <= delay < math.inf:  # also rejects NaN
            self._reject_delay(delay)
        event = [self._now + delay, next(self._seq), handler, False, False, None]
        heapq.heappush(self._queue, event)
        self._live += 1
        if self._live > self._max_queue_depth:
            self._max_queue_depth = self._live
        return EventHandle(event, self)

    def schedule_batch(self, delay: float, handlers: Sequence[Handler]) -> None:
        """Run ``handlers`` in order, ``delay`` time units from now.

        Equivalent to ``schedule(delay, h)`` for each handler in turn,
        with one heap entry instead of ``len(handlers)``.  A batch cannot
        be cancelled.
        """
        if not 0 <= delay < math.inf:
            self._reject_delay(delay)
        if not handlers:
            return
        event = [self._now + delay, next(self._seq), None, False, False,
                 list(handlers)]
        heapq.heappush(self._queue, event)
        self._live += len(handlers)
        if self._live > self._max_queue_depth:
            self._max_queue_depth = self._live

    def schedule_column(
        self,
        delay: float,
        apply: ColumnApply,
        receivers: Sequence[Any],
        values: Sequence[Any],
    ) -> None:
        """Apply ``receivers[i]``'s ``values[i]``, in order, ``delay`` from now.

        One heap entry for ``len(receivers)`` events; see the module
        docstring.  ``apply`` may be handed the items in several slices
        (a ``max_events`` split, :meth:`step`), always in order, and must
        neither schedule nor cancel anything.  A column cannot be
        cancelled.
        """
        if not 0 <= delay < math.inf:
            self._reject_delay(delay)
        if not receivers:
            return
        event = [self._now + delay, next(self._seq), apply, False, False,
                 (receivers, values)]
        heapq.heappush(self._queue, event)
        self._live += len(receivers)
        if self._live > self._max_queue_depth:
            self._max_queue_depth = self._live

    def schedule_at(self, time: float, handler: Handler) -> EventHandle:
        """Schedule ``handler`` at an absolute simulation time.

        Tiny negative deltas — the rounding residue of accumulating
        ``now`` through repeated float additions — are clamped to "fire
        immediately" instead of raising :class:`SimulationError`.
        """
        delay = time - self._now
        if delay < 0 and -delay <= self.PAST_TOLERANCE * max(
            1.0, abs(time), abs(self._now)
        ):
            delay = 0.0
        return self.schedule(delay, handler)

    def _note_cancelled(self) -> None:
        """An :class:`EventHandle` cancelled a still-queued event.

        Cancelled entries stay in the heap (removing from the middle of a
        heap is O(n)); once they outnumber the live entries the queue is
        compacted in one O(n) pass, so mass-cancelled retransmission
        timers can no longer grow ``_queue`` without bound.
        """
        self._cancelled += 1
        self._live -= 1
        if self._cancelled * 2 > len(self._queue):
            self._queue = [e for e in self._queue if not e[_CANCELLED]]
            heapq.heapify(self._queue)
            self._cancelled = 0

    def _fire_batch(self, event: _Event, limit: int) -> int:
        """Run up to ``limit`` handlers of a popped batch entry.

        Handlers past the limit go back on the queue under the batch's own
        (time, seq), so they still fire next, ahead of anything the run
        handlers schedule.  Returns the number of handlers run.
        """
        handlers = event[_BATCH]
        if len(handlers) > limit:
            heapq.heappush(
                self._queue,
                [event[_TIME], event[_SEQ], None, False, False,
                 handlers[limit:]],
            )
            handlers = handlers[:limit]
        for handler in handlers:
            self._live -= 1
            self._events_processed += 1
            handler()
        return len(handlers)

    def _fire_column(self, event: _Event, limit: int) -> int:
        """Apply up to ``limit`` items of a popped column entry.

        Items past the limit go back on the queue under the column's own
        (time, seq), like a batch's.  Returns the number of items applied.
        """
        receivers, values = event[_BATCH]
        if len(receivers) > limit:
            heapq.heappush(
                self._queue,
                [event[_TIME], event[_SEQ], event[_HANDLER], False, False,
                 (receivers[limit:], values[limit:])],
            )
            receivers, values = receivers[:limit], values[:limit]
        count = len(receivers)
        self._live -= count
        self._events_processed += count
        if self._sanitize:
            before = (len(self._queue), self._live, self._cancelled)
            event[_HANDLER](receivers, values)
            contracts.check_column_apply(
                before=before,
                after=(len(self._queue), self._live, self._cancelled),
            )
        else:
            event[_HANDLER](receivers, values)
        return count

    def _fire_entry(self, event: _Event, limit: int) -> int:
        """Run a popped batch or column entry; see the ``_fire_*`` methods."""
        if event[_HANDLER] is None:
            return self._fire_batch(event, limit)
        return self._fire_column(event, limit)

    def step(self) -> bool:
        """Execute the next handler.  Returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event[_CANCELLED]:
                self._cancelled -= 1
                continue
            self._now = event[_TIME]
            event[_FIRED] = True
            if event[_BATCH] is not None:
                self._fire_entry(event, 1)
                return True
            self._live -= 1
            self._events_processed += 1
            event[_HANDLER]()
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: int = 10_000_000
    ) -> None:
        """Run until the queue drains, ``until`` is reached, or the event
        budget is exhausted (which raises, as a runaway-protocol guard)."""
        queue = self._queue
        heappop = heapq.heappop
        executed = 0
        try:
            while queue:
                event = queue[0]
                if event[_CANCELLED]:
                    heappop(queue)
                    self._cancelled -= 1
                    continue
                if until is not None and event[_TIME] > until:
                    self._now = until
                    return
                heappop(queue)
                self._now = event[_TIME]
                event[_FIRED] = True
                if event[_BATCH] is None:
                    self._live -= 1
                    self._events_processed += 1
                    event[_HANDLER]()
                    executed += 1
                else:
                    executed += self._fire_entry(
                        event, max(1, max_events - executed)
                    )
                if executed >= max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; likely a "
                        "non-terminating protocol"
                    )
                # A compaction (cancel inside a handler) replaces the list.
                queue = self._queue
        finally:
            if executed:
                obs = get_recorder()
                obs.count("sim.events", executed)
                obs.gauge("sim.max_queue_depth", self._max_queue_depth)
                trace = get_tracer()
                if trace.enabled:
                    trace.instant(
                        "sim.run",
                        track="sim",
                        args={
                            "events": executed,
                            "max_queue_depth": self._max_queue_depth,
                            "sim_time": self._now,
                        },
                    )
