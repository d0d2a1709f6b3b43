"""The request-plane event loop: replay a workload against a placement.

This is the accessing phase of the paper (Sec. III, Eq. 2) promoted from
a static cost summation to a served system.  A request stream — the
struct-of-arrays batches of
:meth:`~repro.serve.workloads.Workload.stream_batches` — is replayed
against the *final* storage state of any
:class:`~repro.core.placement.CachePlacement`.  The engine never draws
requests itself: :meth:`ServeEngine.run` replays the batches its caller
hands it.  :func:`serve_placement` opens a fresh stream per replay; the
adaptive controller carries one stream across its epochs.

* **Per-cache FIFO service queues.**  Each serving node transmits one
  chunk at a time; a request arriving at a busy server waits in its
  queue, so queueing delay emerges from load instead of being assumed.
* **Service times from the DCF model.**  A request served by ``s`` for
  client ``j`` occupies ``s`` for the full Yang et al. path delay
  ``Σ d(k, c)`` along ``PATH(s, j)`` (:func:`repro.delay.dcf.path_delay`)
  on the final storage loads — the same model
  :func:`repro.delay.latency_report` prices single fetches with.
* **Replica selection is pluggable** (:mod:`repro.serve.selection`):
  the paper's cheapest-cost semantics, least-loaded, or power-of-two
  choices, all with producer fallback.
* **Failure injection.**  With ``failure_rate > 0`` a seeded coin
  marks cache nodes dead before the replay; a request routed to a dead
  replica fails over to the policy's next choice (and ultimately the
  producer, which never dies), paying ``retry_penalty`` detection delay
  per failed attempt.  Failovers, retried requests, and requests whose
  total latency exceeded ``timeout`` are all accounted in the
  :class:`~repro.serve.stats.ServeReport`.

Each policy has one replay path, :meth:`ServeEngine.run`: requests
stay in their struct-of-arrays batch columns and per-cache FIFO queues
collapse to one queue-free time per server.  A load-independent policy
(``cheapest``) gets a columnar replay: each ``(chunk, client)`` pair is
resolved to its server once per replay, one arrival-order pass per
batch runs the queue recurrence, and numpy accounts the batch's
completions.  A load-dependent policy drains a single heap of completion
times before every arrival.  One process sustains well over a million
requests; ``docs/SCALING.md`` documents the design and the measured
throughput.

:meth:`ServeEngine.run_reference` is the original event loop — one
:class:`~repro.distributed.simulator.Simulator` event per arrival and
per completion.  It is the ``REPRO_SANITIZE`` shadow that small replays
are byte-compared with, and the tests' reference; no config, flag or
sweep axis selects it.

Determinism: the workload stream, the failure coin, and any randomized
policy all draw from seeded RNGs, and completions are processed in
simulated-time order — two replays of one configuration produce
byte-identical report JSON, and so does the reference loop.

Observability: counters ``serve.requests`` / ``serve.failovers`` /
``serve.timeouts`` (bulk-incremented per replay), counters
``serve.batch.batches`` / ``serve.batch.requests`` /
``serve.batch.table_entries`` and gauge ``serve.batch.heap_peak`` (most
completions in flight; the columnar replay samples it after each
batch), and trace events ``serve.session`` (span) / ``serve.request``
(one instant per completed request) on the ``serve`` track — all
zero-cost when no recorder or tracer is installed.
"""

from __future__ import annotations

import heapq
import random
import weakref
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable, Deque, Dict, Hashable, Iterable, Iterator, List, Optional,
    Tuple, Union,
)

import numpy as np

from repro.core.costs import CostModel
from repro.core.placement import CachePlacement
from repro.core.problem import CachingProblem
from repro.delay.dcf import DcfParameters, path_delay
from repro.distributed.simulator import Simulator
from repro.errors import ProblemError
from repro.obs import get_recorder, get_tracer
from repro.serve.selection import ReplicaSelector, ServeView, make_selector
from repro.serve.stats import ServeReport, build_report
from repro.serve.workloads import (
    DEFAULT_BATCH_SIZE, Request, RequestBatch, Workload,
)

Node = Hashable

DEFAULT_ENGINE_SEED = 2017


@dataclass(frozen=True)
class ServeConfig:
    """Engine knobs (all deterministic given ``seed``).

    The request stream is not among them: its caller draws it, in
    whatever batches it likes, and hands it to :meth:`ServeEngine.run`.

    Parameters
    ----------
    failure_rate:
        Probability that each cache node is dead for the whole replay
        (seeded coin per node; the producer never dies).
    timeout:
        A completed request whose end-to-end latency exceeds this many
        simulated seconds counts as a timeout (accounting only — the
        transfer still completes, as a TCP tail would).
    retry_penalty:
        Detection delay added to a request's latency for every dead
        replica it tried before landing (RTT + timer, in sim seconds).
    dcf:
        Timing constants for the DCF service-time model.
    seed:
        Seed for the engine RNG (failure coin, randomized policies).
    """

    failure_rate: float = 0.0
    timeout: float = 60.0
    retry_penalty: float = 0.05
    dcf: DcfParameters = DcfParameters()
    seed: int = DEFAULT_ENGINE_SEED

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ProblemError(
                f"failure_rate must be in [0, 1], got {self.failure_rate}"
            )
        if self.timeout < 0:
            raise ProblemError(f"timeout must be >= 0, got {self.timeout}")
        if self.retry_penalty < 0:
            raise ProblemError(
                f"retry_penalty must be >= 0, got {self.retry_penalty}"
            )


class ServeEngine(ServeView):
    """One replay of a request stream against one placement.

    Build it, call :meth:`run` with the stream's batches, read the
    :class:`ServeReport`.  The engine is also the
    :class:`~repro.serve.selection.ServeView` its policy observes the
    network through.
    """

    def __init__(
        self,
        placement: CachePlacement,
        workload: Workload,
        num_requests: int,
        policy: Union[str, ReplicaSelector] = "cheapest",
        config: ServeConfig = ServeConfig(),
    ) -> None:
        if num_requests < 0:
            raise ProblemError(
                f"num_requests must be >= 0, got {num_requests}"
            )
        self.placement = placement
        self.problem = placement.problem
        self.workload = workload
        self.num_requests = num_requests
        self.config = config
        self.selector = make_selector(policy)
        self.rng = random.Random(config.seed)
        # A proxy, not the engine: a strong back-reference would make
        # engine → selector → engine a cycle, and every finished replay
        # (cost model, storage, request buffers) would wait for the
        # cyclic garbage collector.
        self.selector.bind(weakref.proxy(self))

        graph = self.problem.graph
        self._storage = placement.final_storage()
        self._costs = CostModel(graph, self._storage, self.problem.path_policy)
        # Chunk → candidate servers: caches in deterministic order, the
        # producer appended last (the universal fallback).
        producer = self.problem.producer
        self._candidates: List[List[Node]] = []
        for chunk in placement.chunks:
            servers = sorted(
                (node for node in chunk.caches if node != producer), key=str
            )
            servers.append(producer)
            self._candidates.append(servers)
        # Seeded failure injection over the union of cache nodes.
        self._dead = frozenset(
            node
            for node in sorted(
                {n for c in placement.chunks for n in c.caches if n != producer},
                key=str,
            )
            if self.rng.random() < config.failure_rate
        )
        # Per-server FIFO: queued (request, penalty, attempts) triples +
        # a busy flag; queue_depth = waiting + in-service.  (Reference
        # loop only — the heap replay tracks depths in _live_depth.)
        self._queues: Dict[Node, Deque[Tuple[Request, float, int]]] = {}
        self._busy: Dict[Node, bool] = {}
        self._live_depth: Optional[Dict[Node, int]] = None
        # (server, client) → DCF service seconds; the storage state is
        # frozen during a replay, so this cache is exact.
        self._service_cache: Dict[Tuple[Node, Node], float] = {}

        # Tallies.
        self._latencies: List[float] = []
        self._queue_delays: List[float] = []
        self._served: Dict[Node, int] = {
            node: 0 for node in graph.nodes()
        }
        self._timeouts = 0
        self._failovers = 0
        self._retried_requests = 0
        self._self_served = 0
        self._makespan = 0.0

    # -- ServeView -----------------------------------------------------
    def cost(self, server: Node, client: Node) -> float:
        return self._costs.contention_cost(server, client)

    def queue_depth(self, server: Node) -> int:
        if self._live_depth is not None:
            return self._live_depth.get(server, 0)
        queue = self._queues.get(server)
        depth = len(queue) if queue else 0
        if self._busy.get(server):
            depth += 1
        return depth

    # -- the replay ----------------------------------------------------
    def run(self, batches: Iterable[RequestBatch]) -> ServeReport:
        """Replay the first ``num_requests`` requests of ``batches``.

        ``batches`` is a struct-of-arrays request stream
        (:meth:`~repro.serve.workloads.Workload.stream_batches`); the
        replay reads no batch past the one holding its last request.
        Returns the summary report.
        """
        return self._session("batched", self._replay_batched, batches)

    def run_reference(self, batches: Iterable[RequestBatch]) -> ServeReport:
        """:meth:`run` as the original per-request event loop.

        One simulator event per arrival and per completion, one Python
        callback each; the report is byte-identical to :meth:`run`'s.
        This is the ``REPRO_SANITIZE`` shadow that small replays are
        compared with (:func:`_run_checked`) and the tests' reference.
        No config, flag or sweep axis reaches it.
        """
        return self._session("per-request", self._replay_per_request, batches)

    def _session(
        self,
        engine: str,
        replay: Callable[..., None],
        batches: Iterable[RequestBatch],
    ) -> ServeReport:
        """One ``serve.session``: ``replay`` the batches, then report."""
        obs = get_recorder()
        trace = get_tracer()
        with trace.span(
            "serve.session",
            track="serve",
            args=(
                {
                    "workload": self.workload.name,
                    "policy": self.selector.name,
                    "algorithm": self.placement.algorithm,
                    "engine": engine,
                    "requests": self.num_requests,
                    "dead_caches": len(self._dead),
                }
                if trace.enabled
                else None
            ),
        ), obs.timer("serve.replay"):
            # Explicit zero-work guard: no requests, or no clients to
            # issue them (single-node topologies, where the producer is
            # the whole network).  The report is the canonical
            # zero-request document either way.
            if self.num_requests > 0 and self.problem.clients:
                replay(obs, trace, batches)
        return build_report(
            workload=self.workload.name,
            policy=self.selector.name,
            algorithm=self.placement.algorithm,
            requests=self.num_requests,
            latencies=self._latencies,
            queue_delays=self._queue_delays,
            served_loads=self._served,
            producer=self.problem.producer,
            timeouts=self._timeouts,
            failovers=self._failovers,
            retried_requests=self._retried_requests,
            self_served=self._self_served,
            makespan=self._makespan,
        )

    # -- reference path: one simulator event per arrival/completion ----
    def _replay_per_request(
        self, obs, trace, batches: Iterable[RequestBatch]
    ) -> None:
        sim = Simulator()
        stream = _requests(batches)
        remaining = self.num_requests
        # Streaming-telemetry guard: one attribute read when off.  The
        # per-request engine samples per completion; ``arrived`` feeds
        # the in-flight census and is only maintained when telemetry is
        # on (it never influences the replay).
        series_on = obs.series_enabled
        arrived = 0

        def schedule_next() -> None:
            nonlocal remaining
            if remaining <= 0:
                return
            # A finite stream (a short or zero-rate one) just stops
            # scheduling.
            request = next(stream, None)
            if request is None:
                return
            remaining -= 1
            sim.schedule_at(request.time, lambda: arrive(request))

        def arrive(request: Request) -> None:
            nonlocal arrived
            schedule_next()  # keep exactly one pending arrival queued
            if series_on:
                arrived += 1
            candidates = list(self._candidates[request.chunk])
            attempts = 0
            while True:
                server = self.selector.choose(
                    request.client, request.chunk, candidates
                )
                if server not in self._dead:
                    break
                # Dead replica: fail over to the policy's next choice.
                attempts += 1
                self._failovers += 1
                obs.count("serve.failovers")
                candidates.remove(server)
            if attempts:
                self._retried_requests += 1
            enqueue(server, request, attempts * self.config.retry_penalty,
                    attempts)

        def enqueue(
            server: Node, request: Request, penalty: float, attempts: int
        ) -> None:
            if self._busy.get(server):
                self._queues.setdefault(server, deque()).append(
                    (request, penalty, attempts)
                )
            else:
                self._busy[server] = True
                start_service(server, request, penalty, attempts)

        def start_service(
            server: Node, request: Request, penalty: float, attempts: int
        ) -> None:
            service = self._service_time(server, request.client)
            sim.schedule(
                service,
                lambda: complete(server, request, penalty, attempts, service),
            )

        def complete(
            server: Node,
            request: Request,
            penalty: float,
            attempts: int,
            service: float,
        ) -> None:
            latency = (sim.now - request.time) + penalty
            queue_delay = latency - service - penalty
            self._latencies.append(latency)
            self._queue_delays.append(queue_delay)
            self._served[server] += 1
            if server == request.client:
                self._self_served += 1
            if latency > self.config.timeout:
                self._timeouts += 1
                obs.count("serve.timeouts")
            self._makespan = sim.now
            obs.count("serve.requests")
            # Per-completion telemetry: latency/queue-delay histograms,
            # in-flight census, and the counter snapshot (interval-
            # throttled by the recorder) that yields rolling
            # throughput / failover / timeout rate series.  Purely
            # additive — no RNG draws, no float-order changes — so the
            # report stays byte-identical with series enabled.
            if series_on:
                obs.observe("serve.latency_s", latency)
                obs.observe("serve.queue_delay_s", queue_delay)
                obs.series_point(
                    "serve.inflight", sim.now, arrived - len(self._latencies)
                )
                obs.series_mark(sim.now)
            if trace.enabled:
                trace.instant(
                    "serve.request",
                    track="serve",
                    args={
                        "client": str(request.client),
                        "chunk": request.chunk,
                        "server": str(server),
                        "latency_s": latency,
                        "queue_delay_s": queue_delay,
                        "attempts": attempts + 1,
                        "sim_time": sim.now,
                    },
                )
            queue = self._queues.get(server)
            if queue:
                next_request, next_penalty, next_attempts = queue.popleft()
                start_service(server, next_request, next_penalty, next_attempts)
            else:
                self._busy[server] = False

        try:
            schedule_next()
            sim.run(max_events=max(10_000_000, 4 * self.num_requests))
        finally:
            # The handlers reach each other (and the engine) through
            # closure cells; emptying the cells breaks those cycles, so
            # the finished engine is freed without the cyclic collector.
            del schedule_next, arrive, enqueue, start_service, complete

    # -- hot path: struct-of-arrays batches ----------------------------
    def _replay_batched(
        self, obs, trace, batches: Iterable[RequestBatch]
    ) -> None:
        """Array-form replay; byte-identical tallies to the event loop.

        Requests stay in their batch columns (parallel time/client/chunk
        lists, never ``Request`` objects), and per-server FIFO queues
        reduce to one queue-free time per server: ``start =
        max(free[server], arrival)``, ``done = start + service``.  The
        policy picks one of two forms (details and measurements in
        ``docs/SCALING.md``):

        * a *columnar replay* (:meth:`_replay_columnar`) when it is
          load-independent (``cheapest``): one arrival-order pass per
          batch over a per-``(chunk, client)`` row table, then array
          accounting of the batch's completions;
        * a *completion heap* (:meth:`_replay_heap`) when it reads live
          queue depths (``least-loaded``, ``p2c``): completions drain
          before every arrival, in simulated-time order.

        Float parity notes: the reference path schedules arrivals with
        ``Simulator.schedule_at``, whose event time is
        ``now + (t - now)`` — a rounding chain over the previous
        arrival's event time, not the raw stream time.  Both forms
        reproduce that chain (``effective``), reuse the reference path's
        exact latency/queue-delay expressions (elementwise in the
        columnar form) and account completions in the order the
        reference path's simulator fires them, so every float in the
        report is bit-identical.
        """
        batches = self._cut_batches(trace, batches)
        if self.selector.load_independent:
            batch_count, heap_peak = self._replay_columnar(
                obs, trace, batches
            )
        else:
            batch_count, heap_peak = self._replay_heap(obs, trace, batches)
        # Bulk counter increments: identical totals to the per-request
        # path's per-event counts.
        requests = len(self._latencies)
        if requests:
            obs.count("serve.requests", requests)
        if self._failovers:
            obs.count("serve.failovers", self._failovers)
        if self._timeouts:
            obs.count("serve.timeouts", self._timeouts)
        obs.count("serve.batch.batches", batch_count)
        obs.count("serve.batch.requests", requests)
        obs.gauge("serve.batch.heap_peak", heap_peak)

    def _cut_batches(
        self, trace, batches: Iterable[RequestBatch]
    ) -> Iterator[RequestBatch]:
        """The first ``num_requests`` requests of ``batches``, batch by
        batch: the last one cut to fit, no batch read past it, and one
        ``serve.batch`` trace instant per batch."""
        stream = iter(batches)
        remaining = self.num_requests
        index = 0
        while remaining > 0:
            batch = next(stream, None)
            if batch is None:
                return
            times, clients, chunks = batch
            if len(times) > remaining:
                # Serve exactly what the reference path schedules.
                times = times[:remaining]
                clients = clients[:remaining]
                chunks = chunks[:remaining]
            remaining -= len(times)
            if trace.enabled:
                trace.instant(
                    "serve.batch",
                    track="serve",
                    args={"index": index, "requests": len(times)},
                )
            index += 1
            yield times, clients, chunks

    def _replay_columnar(
        self, obs, trace, batches: Iterator[RequestBatch]
    ) -> Tuple[int, int]:
        """Columnar replay of a load-independent policy.

        The ``(server, failovers, penalty, service)`` outcome of the
        failover loop is a pure function of ``(chunk, client)``, so
        :meth:`_resolve_static` computes it once per pair, into a row of
        the row table.  Per batch, one sequential pass runs the arrival
        chain, looks up each request's row and runs the per-server
        queue recurrence; that is the only per-request Python.  The
        rest is array work: latencies, queue delays and timeouts per
        batch, and served loads, self-served, failover and retry
        tallies from per-row request counts at the end.  Returns the
        batch count and the most completions in flight after a batch.

        Accounting order is the reference path's completion-event
        order.  Selection reads no queue state, so every completion due
        before a batch's first arrival is already known when that batch
        starts (a completion's arrival precedes it): at each batch start
        the pending completions with ``done`` before that first arrival
        are accounted (an empty batch has no first arrival and accounts
        nothing), ordered by ``(done, seq)``, and the rest stay
        pending; the final drain takes everything.  This is exactly the
        drain of a completion heap, and it is not one global sort: a
        self-served request has service 0, so its ``done`` can fall just
        below its own batch's first arrival, and so below the ``done``
        of a completion that batch's start already accounted.  Pending
        columns hold only in-flight completions, kept in arrival
        (``seq``) order, so a stable sort by ``done`` is the ``(done,
        seq)`` order.
        """
        timeout = self.config.timeout
        latencies = self._latencies
        queue_delays = self._queue_delays
        traced = trace.enabled
        series_on = obs.series_enabled
        resolve = self._resolve_static

        node_index = {node: i for i, node in enumerate(self._served)}
        free = [0.0] * len(node_index)  # node index → queue-free sim time
        # The row table: chunk → client → (server index, service, row),
        # filled lazily so only pairs that occur pay the resolution;
        # per-row columns beside it, and request counts per row.
        table: List[Dict[Node, Tuple[int, float, int]]] = [
            {} for _ in self._candidates
        ]
        row_client: List[Node] = []
        row_chunk: List[int] = []
        row_server: List[Node] = []
        row_attempts: List[int] = []
        row_service: List[float] = []
        row_penalty: List[float] = []
        row_counts = np.zeros(0, dtype=np.int64)
        # In-flight completions, in arrival order.
        pending_done = np.empty(0)
        pending_raw = np.empty(0)
        pending_row = np.empty(0, dtype=np.intp)
        timeouts = 0
        heap_peak = 0
        batch_count = 0

        def new_row(client: Node, chunk: int) -> Tuple[int, float, int]:
            server, attempts, penalty, service = resolve(client, chunk)
            entry = (node_index[server], service, len(row_client))
            table[chunk][client] = entry
            row_client.append(client)
            row_chunk.append(chunk)
            row_server.append(server)
            row_attempts.append(attempts)
            row_service.append(service)
            row_penalty.append(penalty)
            return entry

        def account(limit: Optional[float]) -> None:
            """Account the pending completions due before ``limit``
            (all of them when None) in ``(done, seq)`` order."""
            nonlocal pending_done, pending_raw, pending_row, timeouts
            if limit is None:
                due = np.ones(len(pending_done), dtype=bool)
            else:
                due = pending_done < limit
            done = pending_done[due]
            raw = pending_raw[due]
            rows = pending_row[due]
            kept = ~due
            pending_done = pending_done[kept]
            pending_raw = pending_raw[kept]
            pending_row = pending_row[kept]
            if not len(done):
                return
            order = np.argsort(done, kind="stable")
            done = done[order]
            raw = raw[order]
            rows = rows[order]
            penalty = np.array(row_penalty)[rows]
            latency = (done - raw) + penalty
            queue_delay = (latency - np.array(row_service)[rows]) - penalty
            timeouts += int(np.count_nonzero(latency > timeout))
            self._makespan = float(done[-1])
            lat = latency.tolist()
            delay = queue_delay.tolist()
            latencies.extend(lat)
            queue_delays.extend(delay)
            if series_on:
                for value in lat:
                    obs.observe("serve.latency_s", value)
                for value in delay:
                    obs.observe("serve.queue_delay_s", value)
            if traced:
                for row, latency_s, queue_delay_s, sim_time in zip(
                    rows.tolist(), lat, delay, done.tolist()
                ):
                    trace.instant(
                        "serve.request",
                        track="serve",
                        args={
                            "client": str(row_client[row]),
                            "chunk": row_chunk[row],
                            "server": str(row_server[row]),
                            "latency_s": latency_s,
                            "queue_delay_s": queue_delay_s,
                            "attempts": row_attempts[row] + 1,
                            "sim_time": sim_time,
                        },
                    )

        def sample() -> None:
            failovers = int(np.dot(row_counts, row_attempts))
            _sample_series(obs, effective, len(latencies), failovers,
                           timeouts, len(pending_done))

        # The reference path's arrival-event times round through
        # schedule_at (now + (t - now)); mirror the chain exactly.
        effective = 0.0
        for times, clients, chunks in batches:
            batch_count += 1
            if len(times):
                account(times[0])
            dones: List[float] = []
            rows: List[int] = []
            add_done = dones.append
            add_row = rows.append
            for raw, client, chunk in zip(times, clients, chunks):
                effective = effective + (raw - effective)
                entry = table[chunk].get(client)
                if entry is None:
                    entry = new_row(client, chunk)
                server, service, row = entry
                start = free[server]
                if start < effective:
                    start = effective
                done = start + service
                free[server] = done
                add_done(done)
                add_row(row)
            pending_done = np.concatenate((pending_done, dones))
            pending_raw = np.concatenate((pending_raw, times))
            pending_row = np.concatenate(
                (pending_row, np.array(rows, dtype=np.intp))
            )
            counts = np.bincount(rows, minlength=len(row_client))
            counts[: len(row_counts)] += row_counts
            row_counts = counts
            heap_peak = max(heap_peak, len(pending_done))
            if series_on:
                sample()
        account(None)
        if series_on:
            sample()

        failovers = retried = self_served = 0
        served = self._served
        for row, count in enumerate(row_counts.tolist()):
            client = row_client[row]
            server = row_server[row]
            attempts = row_attempts[row]
            served[server] += count
            if server == client:
                self_served += count
            if attempts:
                failovers += attempts * count
                retried += count
        self._timeouts += timeouts
        self._failovers += failovers
        self._retried_requests += retried
        self._self_served += self_served
        obs.count("serve.batch.table_entries", len(row_client))
        return batch_count, heap_peak

    def _replay_heap(
        self, obs, trace, batches: Iterator[RequestBatch]
    ) -> Tuple[int, int]:
        """Completion-heap replay of a load-dependent policy.

        The selector reads live queue depths, so before every arrival
        the completions due by then are popped from one heap of
        ``(done, seq, …)`` tuples — simulated-time order, exactly the
        order the reference path's simulator fires them in — and their
        servers' depths drop.  Returns the batch count and the most
        completions in flight.
        """
        config = self.config
        choose = self.selector.choose
        dead = self._dead
        candidates_by_chunk = self._candidates
        retry_penalty = config.retry_penalty
        timeout = config.timeout
        latencies = self._latencies
        queue_delays = self._queue_delays
        served = self._served
        service_time = self._service_time
        traced = trace.enabled
        series_on = obs.series_enabled

        free: Dict[Node, float] = {}  # server → queue-free sim time
        depth: Dict[Node, int] = {}  # server → queued + in service
        self._live_depth = depth
        # Completion heap entries:
        # (done, seq, server, raw_arrival, service, penalty, attempts,
        #  client, chunk) — seq breaks exact-time ties deterministically.
        heap: List[Tuple] = []
        push = heapq.heappush
        pop = heapq.heappop
        seq = 0
        heap_peak = 0
        batch_count = 0
        timeouts = 0
        failovers = 0
        retried = 0
        self_served = 0

        def drain(limit: Optional[float]) -> None:
            """Account completions before ``limit`` (all when None).

            Pops run in (time, seq) order and the limit only ever
            grows, so the accounting sequence — and with it every
            order-sensitive float sum in the report — matches the
            reference path's completion-event order exactly.
            """
            nonlocal timeouts, self_served
            while heap and (limit is None or heap[0][0] < limit):
                (done, _, server, raw, service, penalty, attempts,
                 client, chunk) = pop(heap)
                depth[server] -= 1
                latency = (done - raw) + penalty
                queue_delay = latency - service - penalty
                latencies.append(latency)
                queue_delays.append(queue_delay)
                served[server] += 1
                if server == client:
                    self_served += 1
                if latency > timeout:
                    timeouts += 1
                self._makespan = done
                if series_on:
                    obs.observe("serve.latency_s", latency)
                    obs.observe("serve.queue_delay_s", queue_delay)
                if traced:
                    trace.instant(
                        "serve.request",
                        track="serve",
                        args={
                            "client": str(client),
                            "chunk": chunk,
                            "server": str(server),
                            "latency_s": latency,
                            "queue_delay_s": queue_delay,
                            "attempts": attempts + 1,
                            "sim_time": done,
                        },
                    )

        # The reference path's arrival-event times round through
        # schedule_at (now + (t - now)); mirror the chain exactly.
        effective = 0.0
        for times, clients, chunks in batches:
            batch_count += 1
            for i in range(len(times)):
                raw = times[i]
                effective = effective + (raw - effective)
                # Load-dependent policies read live queue depths, so
                # completions drain before every single arrival.
                drain(effective)
                client = clients[i]
                chunk = chunks[i]
                candidates = list(candidates_by_chunk[chunk])
                attempts = 0
                while True:
                    server = choose(client, chunk, candidates)
                    if server not in dead:
                        break
                    attempts += 1
                    candidates.remove(server)
                penalty = attempts * retry_penalty
                if attempts:
                    failovers += attempts
                    retried += 1
                service = service_time(server, client)
                start = free.get(server, 0.0)
                if start < effective:
                    start = effective
                done = start + service
                free[server] = done
                depth[server] = depth.get(server, 0) + 1
                push(heap, (done, seq, server, raw, service, penalty,
                            attempts, client, chunk))
                seq += 1
                if len(heap) > heap_peak:
                    heap_peak = len(heap)
            if series_on:
                _sample_series(obs, effective, len(latencies), failovers,
                               timeouts, len(heap))
        drain(None)
        if series_on:
            _sample_series(obs, effective, len(latencies), failovers,
                           timeouts, len(heap))
        self._live_depth = None
        self._timeouts += timeouts
        self._failovers += failovers
        self._retried_requests += retried
        self._self_served += self_served
        return batch_count, heap_peak

    def _resolve_static(
        self, client: Node, chunk: int
    ) -> Tuple[Node, int, float, float]:
        """Run the failover loop once for a load-independent policy.

        Returns ``(server, attempts, penalty, service)`` — the same
        outcome every request for this ``(chunk, client)`` pair would
        compute, since costs, service times, and the dead set are all
        frozen for the whole replay.
        """
        candidates = list(self._candidates[chunk])
        attempts = 0
        while True:
            server = self.selector.choose(client, chunk, candidates)
            if server not in self._dead:
                break
            attempts += 1
            candidates.remove(server)
        return (
            server,
            attempts,
            attempts * self.config.retry_penalty,
            self._service_time(server, client),
        )

    def _service_time(self, server: Node, client: Node) -> float:
        if server == client:
            return 0.0
        key = (server, client)
        cached = self._service_cache.get(key)
        if cached is None:
            path = self._costs.path(server, client)
            cached = path_delay(
                self.problem.graph, path, self._storage, self.config.dcf
            )
            self._service_cache[key] = cached
        return cached


def _sample_series(
    obs, t: float, completed: int, failovers: int, timeouts: int,
    inflight: int,
) -> None:
    """One telemetry sample per batch of a batched replay.

    Cumulative completion / failover / timeout counters (windowed rates
    fall out) plus the in-flight census.  The recorder counters are only
    bulk-incremented at the end of the replay, so ``series_mark``
    snapshots would read zeros mid-replay; series names and kinds match
    the per-request engine's schema exactly.
    """
    obs.series_point("serve.requests", t, completed, kind="counter")
    obs.series_point("serve.failovers", t, failovers, kind="counter")
    obs.series_point("serve.timeouts", t, timeouts, kind="counter")
    obs.series_point("serve.inflight", t, inflight)


def _requests(batches: Iterable[RequestBatch]) -> Iterator[Request]:
    """The per-request path's view of a batch stream: one
    :class:`Request` per column entry, in stream order."""
    index = 0
    for times, clients, chunks in batches:
        for time, client, chunk in zip(times, clients, chunks):
            yield Request(index=index, time=time, client=client, chunk=chunk)
            index += 1


def request_stream(
    problem: CachingProblem, workload: Workload, limit: int
) -> Iterator[RequestBatch]:
    """A fresh stream of ``limit`` requests of ``workload`` on ``problem``.

    Batches of :data:`~repro.serve.workloads.DEFAULT_BATCH_SIZE`, the
    last one cut to fit.  A problem without clients issues no requests.
    """
    if not problem.clients:
        return iter(())
    return workload.stream_batches(
        problem.clients, problem.num_chunks, DEFAULT_BATCH_SIZE, limit=limit
    )


def serve_placement(
    placement: CachePlacement,
    workload: Workload,
    num_requests: int,
    policy: Union[str, ReplicaSelector] = "cheapest",
    config: Optional[ServeConfig] = None,
) -> ServeReport:
    """Replay ``num_requests`` of ``workload`` against ``placement``.

    The one-call entry point: builds a :class:`ServeEngine`, runs it on
    a fresh request stream, returns the
    :class:`~repro.serve.stats.ServeReport`.
    """
    engine = ServeEngine(
        placement,
        workload,
        num_requests,
        policy=policy,
        config=config if config is not None else ServeConfig(),
    )
    stream = request_stream(placement.problem, workload, num_requests)
    return _run_checked(engine, policy, stream)


def _run_checked(
    engine: ServeEngine,
    policy: Union[str, ReplicaSelector],
    batches: Iterable[RequestBatch],
) -> ServeReport:
    """``engine.run(batches)``, cross-checked under REPRO_SANITIZE.

    A replay small enough that a serial shadow run is cheap
    (``SERVE_EQUIVALENCE_MAX_REQUESTS``) reads its batches from a list,
    and a second engine built with the same ``policy`` replays that list
    again through :meth:`ServeEngine.run_reference`; the two reports
    must match byte for byte.  The shadow runs under null obs sinks so
    counters and traces record one serve, not two.  Any other replay
    reads ``batches`` lazily, once.
    """
    from repro.analysis import contracts

    config = engine.config
    if (
        not contracts.sanitize_enabled()
        or engine.num_requests > contracts.SERVE_EQUIVALENCE_MAX_REQUESTS
    ):
        return engine.run(batches)
    from repro.obs import NullRecorder, NullTracer, use_recorder, use_tracer

    batches = list(batches)
    report = engine.run(batches)
    shadow = ServeEngine(
        engine.placement,
        engine.workload,
        engine.num_requests,
        policy=policy,
        config=config,
    )
    with use_recorder(NullRecorder()), use_tracer(NullTracer()):
        reference = shadow.run_reference(batches)
    contracts.check_serve_equivalence(
        batched_json=report.to_json(),
        reference_json=reference.to_json(),
        context=(
            f"serve_placement(requests={engine.num_requests}, "
            f"seed={config.seed})"
        ),
    )
    return report
