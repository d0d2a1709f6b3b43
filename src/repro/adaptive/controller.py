"""The closed control loop: serve → demand signal → re-optimize → serve.

:class:`AdaptiveController` runs epoch-based control over one continuous
workload stream:

1. **Bootstrap** — one-shot Algorithm 1 places every chunk; the result
   is both the live starting placement and the frozen *static* baseline
   the run is scored against.
2. **Serve an epoch** — the next ``R`` requests of the one stream the
   run opened (requests ``[k·R, (k+1)·R)`` at epoch ``k``) replay against
   the current placement (:class:`~repro.serve.engine.ServeEngine`),
   and the controller counts the ``(client, chunk)`` pairs of the
   window it handed over: the epoch's raw demand.
3. **Estimate & compare** — counts fold into an EWMA of the joint
   request distribution (:mod:`repro.adaptive.signals`).  After
   ``warmup_epochs`` of observation the estimate is frozen as the
   *reference* — the demand the current placement is considered
   optimized for.  Each later epoch the per-chunk drift between the
   live estimate and the reference classifies chunks clean / moderately
   dirty / heavily dirty (:mod:`repro.adaptive.policy`).
4. **Re-optimize** — moderately dirty chunks get bounded local moves
   that provably never worsen demand-weighted cost
   (:mod:`repro.adaptive.moves`, sanitizer-checked); heavily dirty
   chunks get a scoped Algorithm-1 re-solve through
   :func:`repro.online.reoptimize_chunk` (reverted wholesale if it
   fails to improve the demand-weighted cost).  Acting on a chunk
   re-anchors its reference row — the placement is now optimized for
   *current* demand.

**Quiescence invariant**: under a stationary workload every drift stays
below ``dirty_threshold``, no chunk is ever touched, and the final
placement is the bit-identical one-shot Algorithm 1 output (the original
:class:`~repro.core.placement.ChunkPlacement` objects, zero moves).

**Accounting** is all-in: each epoch's observed demand is priced under
the adaptive and the frozen static placement (same counts, same Eq. 2
costs), and the adaptive side additionally pays every replica transfer
and re-solve dissemination (scaled by the paper's ``M``).  Node churn —
``churn_schedule`` wipes a node's cache at an epoch boundary, modelling
a device leaving and rejoining empty — hits both sides equally; only the
adaptive side may re-optimize afterwards.

Determinism: the workload stream, the serve engine, the EWMA, candidate
enumeration, and every float accumulation are seeded/sorted, so one
configuration always produces byte-identical
:class:`~repro.adaptive.report.AdaptiveReport` JSON.  Batteries are not
supported (move revert cannot refund drained energy).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Tuple, Union

from repro.analysis import contracts
from repro.core.approximation import ApproximationConfig, solve_approximation
from repro.core.costs import CostModel
from repro.core.placement import CachePlacement, ChunkPlacement
from repro.core.problem import CachingProblem, ProblemState
from repro.errors import InvariantError, ProblemError
from repro.obs import get_recorder, get_tracer
from repro.online.controller import reoptimize_chunk
from repro.online.replacement import REPLACEMENT_POLICIES
from repro.serve.engine import (
    ServeConfig,
    ServeEngine,
    _run_checked,
    request_stream,
)
from repro.serve.stats import ServeReport
from repro.serve.workloads import RequestBatch, Workload
from repro.adaptive.moves import (
    DEFAULT_MIN_GAIN,
    MOVE_CACHE,
    MOVE_EVICT,
    MoveEvaluator,
    fresh_weighted_access_cost,
    rebuild_chunk_placement,
    replica_transfer_cost,
    weighted_access_cost,
)
from repro.adaptive.policy import (
    ACTION_MOVES,
    ACTION_NONE,
    ACTION_RESOLVE,
    ADAPTIVE_POLICIES,
    AdaptivePolicy,
)
from repro.adaptive.report import AdaptiveReport, EpochRecord, MoveRecord
from repro.adaptive.signals import (
    DemandEstimator,
    DemandSnapshot,
    chunk_drift,
)

Node = Hashable

ALGORITHM_NAME = "adaptive"


@dataclass(frozen=True)
class AdaptiveConfig:
    """Control-loop knobs (all deterministic; see ``docs/ADAPTIVE.md``).

    Parameters
    ----------
    epochs / epoch_requests:
        The loop serves ``epochs`` consecutive windows of
        ``epoch_requests`` requests from one continuous workload stream.
    policy:
        Which re-optimization mechanisms are armed: a name from
        :data:`~repro.adaptive.policy.ADAPTIVE_POLICIES` or an
        :class:`~repro.adaptive.policy.AdaptivePolicy`.
    warmup_epochs:
        Observation-only epochs before the demand reference is frozen.
        At least 1 — the reference *is* the quiescence anchor.
    ewma_alpha:
        Smoothing of the demand estimator (1 = trust only the last
        epoch).
    dirty_threshold / resolve_threshold:
        Per-chunk drift levels (see :func:`~repro.adaptive.signals.chunk_drift`)
        at which a chunk becomes move-eligible / re-solve-eligible.
    max_moves_per_epoch / max_cache_candidates:
        Bounds on the local-move phase: accepted moves per epoch, and
        replica-add candidates tried per dirty chunk.
    min_gain:
        Strictly-positive demand-weighted saving a move must clear.
    selection_policy:
        Replica-selection policy the serve engine replays under.
    serve:
        Engine knobs for every epoch's replay.
    approx:
        Algorithm 1 configuration for the bootstrap solve and every
        scoped re-solve.
    replacement:
        Replacement policy name (``repro.online``) used when a re-solve
        needs room.
    churn_schedule:
        ``(epoch, node)`` pairs: at that epoch's start the node's cache
        is wiped on both the adaptive and the static side.
    """

    epochs: int = 6
    epoch_requests: int = 1000
    policy: Union[str, AdaptivePolicy] = "hybrid"
    warmup_epochs: int = 1
    ewma_alpha: float = 0.5
    dirty_threshold: float = 0.1
    resolve_threshold: float = 0.3
    max_moves_per_epoch: int = 4
    max_cache_candidates: int = 3
    min_gain: float = DEFAULT_MIN_GAIN
    selection_policy: str = "cheapest"
    serve: ServeConfig = ServeConfig()
    approx: ApproximationConfig = ApproximationConfig()
    replacement: str = "oldest-first"
    churn_schedule: Tuple[Tuple[int, Node], ...] = ()

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ProblemError(f"epochs must be >= 1, got {self.epochs}")
        if self.epoch_requests < 0:
            raise ProblemError(
                f"epoch_requests must be >= 0, got {self.epoch_requests}"
            )
        if not 1 <= self.warmup_epochs <= self.epochs:
            raise ProblemError(
                f"warmup_epochs must be in [1, epochs], got "
                f"{self.warmup_epochs}"
            )
        if isinstance(self.policy, str) and self.policy not in ADAPTIVE_POLICIES:
            raise ProblemError(
                f"unknown adaptive policy {self.policy!r} "
                f"(choose from {sorted(ADAPTIVE_POLICIES)})"
            )
        if not 0.0 <= self.dirty_threshold <= self.resolve_threshold:
            raise ProblemError(
                "thresholds must satisfy 0 <= dirty_threshold <= "
                f"resolve_threshold, got {self.dirty_threshold} / "
                f"{self.resolve_threshold}"
            )
        if self.max_moves_per_epoch < 0:
            raise ProblemError("max_moves_per_epoch must be >= 0")
        if self.max_cache_candidates < 1:
            raise ProblemError("max_cache_candidates must be >= 1")
        if self.min_gain < 0:
            raise ProblemError("min_gain must be >= 0")
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ProblemError(
                f"unknown replacement policy {self.replacement!r} "
                f"(choose from {sorted(REPLACEMENT_POLICIES)})"
            )
        for entry in self.churn_schedule:
            if len(entry) != 2 or entry[0] < 0:
                raise ProblemError(
                    f"churn_schedule entries are (epoch >= 0, node), "
                    f"got {entry!r}"
                )

    def resolved_policy(self) -> AdaptivePolicy:
        if isinstance(self.policy, AdaptivePolicy):
            return self.policy
        return ADAPTIVE_POLICIES[self.policy]


class AdaptiveController:
    """One closed-loop run over a problem and a workload stream.

    Build it, call :meth:`run`, read the
    :class:`~repro.adaptive.report.AdaptiveReport`; the final placement
    stays on :attr:`final_placement` for inspection.
    """

    def __init__(
        self,
        problem: CachingProblem,
        workload: Workload,
        config: Optional[AdaptiveConfig] = None,
    ) -> None:
        if problem.battery_capacity is not None:
            raise ProblemError(
                "the adaptive controller does not support battery-"
                "constrained problems (move reverts cannot refund "
                "drained energy)"
            )
        self.problem = problem
        self.workload = workload
        self.config = config or AdaptiveConfig()
        self.policy = self.config.resolved_policy()
        self.replacement = REPLACEMENT_POLICIES[self.config.replacement]()
        for epoch, node in self.config.churn_schedule:
            if node not in problem.graph:
                raise ProblemError(f"churn node {node!r} is not in the graph")
            if node == problem.producer:
                raise ProblemError("cannot churn the producer")
        self.final_placement: Optional[CachePlacement] = None
        self.baseline_placement: Optional[CachePlacement] = None
        #: The last epoch's ServeReport (the steady state after
        #: adaptation; what sweep adaptive cells aggregate).
        self.last_serve_report: Optional[ServeReport] = None

    # ------------------------------------------------------------------
    def run(self) -> AdaptiveReport:
        """Run the full loop; returns the accumulated report."""
        obs = get_recorder()
        trace = get_tracer()
        config = self.config
        problem = self.problem
        with trace.span(
            "adaptive.session",
            track="adaptive",
            args=(
                {
                    "workload": self.workload.name,
                    "policy": self.policy.name,
                    "epochs": config.epochs,
                    "epoch_requests": config.epoch_requests,
                }
                if trace.enabled
                else None
            ),
        ), obs.timer("adaptive.session"):
            return self._run(obs, trace)

    def _run(self, obs, trace) -> AdaptiveReport:
        config = self.config
        problem = self.problem
        producer = problem.producer

        # 1. Bootstrap: one-shot Algorithm 1 is both the starting
        # placement and the frozen static baseline.
        baseline = solve_approximation(problem, config.approx)
        self.baseline_placement = baseline
        chunks: List[ChunkPlacement] = list(baseline.chunks)

        # Live state mirrors the placement; replay in sorted order so
        # the storage (and hence the incremental cost model) is
        # reproducible node by node.
        state = problem.new_state()
        for placement in chunks:
            for node in sorted(placement.caches, key=str):
                state.cache(node, placement.chunk)
        state.drain_dirty_nodes()

        # Static baseline: frozen holders + its own cost model.  Only
        # churn ever mutates it.
        static_storage = baseline.final_storage()
        static_costs = CostModel(
            problem.graph, static_storage, problem.path_policy
        )
        static_holders: Dict[int, List[Node]] = {
            placement.chunk: sorted(placement.caches, key=str)
            for placement in chunks
        }

        # One stream for the whole run; each epoch reads the next R
        # requests of it, starting with what the last epoch left of its
        # boundary batch.
        stream = request_stream(
            problem, self.workload, config.epochs * config.epoch_requests
        )
        carry: List[Tuple[RequestBatch, int]] = []

        estimator = DemandEstimator(config.ewma_alpha)
        reference: Optional[DemandSnapshot] = None

        epoch_records: List[EpochRecord] = []
        move_records: List[MoveRecord] = []
        accumulated_adaptive = 0.0
        accumulated_static = 0.0
        total_adaptation = 0.0
        total_moves = 0
        total_resolves = 0
        series_on = obs.series_enabled
        forced_dirty: set = set()

        for epoch in range(config.epochs):
            with trace.span(
                "adaptive.epoch",
                track="adaptive",
                args={"epoch": epoch} if trace.enabled else None,
            ):
                obs.count("adaptive.epochs")
                churned, damaged = self._apply_churn(
                    epoch, state, chunks, static_storage, static_costs,
                    static_holders, obs,
                )
                # Churn is placement damage, not demand drift: force the
                # wiped chunks into the next control step regardless of
                # their drift so the adaptive side can repair them.
                forced_dirty |= damaged

                report, counts = self._serve_epoch(chunks, stream, carry)
                self.last_serve_report = report

                # Price this epoch's actual demand under both placements.
                holders_map = {
                    placement.chunk: sorted(placement.caches, key=str)
                    for placement in chunks
                }
                adaptive_cost = weighted_access_cost(
                    state.costs, producer, holders_map, counts
                )
                static_cost = weighted_access_cost(
                    static_costs, producer, static_holders, counts
                )

                estimator.update(counts)
                if (
                    reference is None
                    and estimator.epochs_observed >= config.warmup_epochs
                ):
                    reference = estimator.snapshot()

                stats = _AdaptStats()
                if (
                    reference is not None
                    and epoch < config.epochs - 1
                    and (self.policy.use_moves or self.policy.use_resolve)
                ):
                    reference = self._adapt(
                        epoch, state, chunks, estimator, reference,
                        move_records, stats, forced_dirty, obs, trace,
                    )
                    forced_dirty = set()

                dirty_nodes = state.drain_dirty_nodes()
                obs.gauge("adaptive.dirty_nodes", len(dirty_nodes))
                if contracts.sanitize_enabled():
                    self._check_holders(state, chunks)

                accumulated_adaptive += adaptive_cost + stats.adaptation_cost
                accumulated_static += static_cost
                total_adaptation += stats.adaptation_cost
                total_moves += stats.moves_accepted
                total_resolves += stats.resolves
                if series_on:
                    t = float(epoch)
                    obs.series_point("adaptive.cost.adaptive", t, adaptive_cost)
                    obs.series_point("adaptive.cost.static", t, static_cost)
                    obs.series_point("adaptive.drift_max", t, stats.drift_max)

                epoch_records.append(
                    EpochRecord(
                        epoch=epoch,
                        requests=report.completed,
                        adaptive_cost=adaptive_cost,
                        static_cost=static_cost,
                        adaptation_cost=stats.adaptation_cost,
                        served_gini=report.served_gini,
                        drift_max=stats.drift_max,
                        dirty_chunks=stats.dirty_chunks,
                        moves_considered=stats.moves_considered,
                        moves_accepted=stats.moves_accepted,
                        resolves=stats.resolves,
                        resolves_reverted=stats.resolves_reverted,
                        churned_nodes=churned,
                    )
                )

        self.final_placement = CachePlacement(
            problem=problem, chunks=list(chunks), algorithm=ALGORITHM_NAME
        )
        return AdaptiveReport(
            workload=self.workload.name,
            adaptive_policy=self.policy.name,
            selection_policy=config.selection_policy,
            algorithm=ALGORITHM_NAME,
            epochs=config.epochs,
            epoch_requests=config.epoch_requests,
            warmup_epochs=config.warmup_epochs,
            accumulated_adaptive_cost=accumulated_adaptive,
            accumulated_static_cost=accumulated_static,
            total_adaptation_cost=total_adaptation,
            total_moves=total_moves,
            total_resolves=total_resolves,
            final_copies=self.final_placement.total_copies(),
            epoch_records=tuple(epoch_records),
            move_records=tuple(move_records),
        )

    # ------------------------------------------------------------------
    def _serve_epoch(
        self,
        chunks: List[ChunkPlacement],
        stream: Iterator[RequestBatch],
        carry: List[Tuple[RequestBatch, int]],
    ) -> Tuple[ServeReport, Dict[Tuple[Node, int], int]]:
        """Replay the next window of ``stream``; count its demand.

        The demand is the ``(client, chunk)`` pairs of the requests the
        window hands the engine, counted in stream order.
        """
        config = self.config
        placement = CachePlacement(
            problem=self.problem, chunks=list(chunks),
            algorithm=ALGORITHM_NAME,
        )
        engine = ServeEngine(
            placement,
            self.workload,
            config.epoch_requests,
            policy=config.selection_policy,
            config=config.serve,
        )
        demand: Counter = Counter()
        window = _window(stream, carry, config.epoch_requests, demand)
        # Same REPRO_SANITIZE cross-check serve_placement() runs: the
        # epoch replay must match the per-request reference.
        report = _run_checked(engine, config.selection_policy, window)
        return report, demand

    def _apply_churn(
        self,
        epoch: int,
        state: ProblemState,
        chunks: List[ChunkPlacement],
        static_storage,
        static_costs: CostModel,
        static_holders: Dict[int, List[Node]],
        obs,
    ) -> Tuple[Tuple[str, ...], set]:
        """Wipe scheduled nodes' caches on both sides, fairly.

        Returns the churned node labels and the set of chunks that lost
        a replica on the adaptive side (the placement damage the next
        control step must consider regardless of demand drift).
        """
        nodes = [
            node for when, node in self.config.churn_schedule if when == epoch
        ]
        if not nodes:
            return (), set()
        churned: List[str] = []
        affected: set = set()
        evictions = 0
        for node in nodes:
            for chunk in sorted(state.storage.chunks_at(node)):
                state.evict(node, chunk)
                affected.add(chunk)
                evictions += 1
            static_lost = sorted(static_storage.chunks_at(node))
            for chunk in static_lost:
                static_storage.remove(node, chunk)
                static_holders[chunk] = [
                    h for h in static_holders[chunk] if h != node
                ]
            if static_lost:
                static_costs.invalidate(dirty_nodes=(node,))
            churned.append(str(node))
        for chunk in sorted(affected):
            chunks[chunk] = rebuild_chunk_placement(state, chunk)
        obs.count("adaptive.churn_evictions", evictions)
        return tuple(churned), affected

    # ------------------------------------------------------------------
    def _adapt(
        self,
        epoch: int,
        state: ProblemState,
        chunks: List[ChunkPlacement],
        estimator: DemandEstimator,
        reference: DemandSnapshot,
        move_records: List[MoveRecord],
        stats: "_AdaptStats",
        forced_dirty: set,
        obs,
        trace,
    ) -> DemandSnapshot:
        """One control step: classify drift, re-solve, then local moves.

        ``forced_dirty`` chunks (churn-damaged placements) are escalated
        to the strongest armed action even when their demand drift is
        below threshold.
        """
        config = self.config
        problem = self.problem
        snapshot = estimator.snapshot()
        drift = chunk_drift(snapshot, reference, problem.num_chunks)
        stats.drift_max = max(drift.values(), default=0.0)

        actions = {
            chunk: self.policy.classify(
                drift[chunk], config.dirty_threshold, config.resolve_threshold
            )
            for chunk in range(problem.num_chunks)
        }
        for chunk in sorted(forced_dirty):
            if actions.get(chunk) == ACTION_NONE:
                if self.policy.use_resolve:
                    actions[chunk] = ACTION_RESOLVE
                elif self.policy.use_moves:
                    actions[chunk] = ACTION_MOVES
        # Heaviest drift first; chunk id breaks ties deterministically.
        resolve_chunks = sorted(
            (c for c, a in actions.items() if a == ACTION_RESOLVE),
            key=lambda c: (-drift[c], c),
        )
        move_chunks = sorted(
            (c for c, a in actions.items() if a == ACTION_MOVES),
            key=lambda c: (-drift[c], c),
        )
        stats.dirty_chunks = len(resolve_chunks) + len(move_chunks)
        obs.count("adaptive.dirty_chunks", stats.dirty_chunks)

        weights = snapshot.weights(float(config.epoch_requests))

        for chunk in resolve_chunks:
            reference = self._resolve_chunk(
                epoch, state, chunks, chunk, weights, snapshot, reference,
                stats, obs, trace,
            )
        if move_chunks and config.max_moves_per_epoch > 0:
            reference = self._move_phase(
                epoch, state, chunks, move_chunks, weights, snapshot,
                reference, move_records, stats, obs, trace,
            )
        return reference

    def _resolve_chunk(
        self,
        epoch: int,
        state: ProblemState,
        chunks: List[ChunkPlacement],
        chunk: int,
        weights,
        snapshot: DemandSnapshot,
        reference: DemandSnapshot,
        stats: "_AdaptStats",
        obs,
        trace,
    ) -> DemandSnapshot:
        """Scoped Algorithm-1 re-solve of one heavily-drifted chunk.

        Reverted wholesale (including any replacement-policy victims)
        when the fresh placement fails to improve the demand-weighted
        access cost — the dual ascent optimizes the fairness objective,
        not observed demand, so the guard keeps re-solves monotonic too.
        """
        problem = self.problem
        producer = problem.producer
        num_chunks = problem.num_chunks
        before_holders = {
            c: sorted(state.storage.holders(c), key=str)
            for c in range(num_chunks)
        }
        before = weighted_access_cost(
            state.costs, producer, before_holders, weights
        )
        for node in before_holders[chunk]:
            state.evict(node, chunk)
        result = reoptimize_chunk(
            state,
            chunk,
            self.config.approx,
            policy=self.replacement,
            publish_order={c: c for c in range(num_chunks)},
        )
        after_holders = {
            c: sorted(state.storage.holders(c), key=str)
            for c in range(num_chunks)
        }
        after = weighted_access_cost(
            state.costs, producer, after_holders, weights
        )
        stats.resolves += 1
        obs.count("adaptive.resolves")
        improved = after < before - self.config.min_gain
        if improved:
            dissemination = (
                result.placement.stage_cost.dissemination
                * problem.dissemination_scale
            )
            stats.adaptation_cost += dissemination
            chunks[chunk] = result.placement
            for other in range(num_chunks):
                if other != chunk and (
                    after_holders[other] != before_holders[other]
                ):
                    # A replacement victim changed this chunk too.
                    chunks[other] = rebuild_chunk_placement(state, other)
        else:
            # Restore every chunk's holders exactly (replacement victims
            # included); the placement objects were never swapped.
            for c in range(num_chunks):
                current = set(state.storage.holders(c))
                wanted = set(before_holders[c])
                for node in sorted(current - wanted, key=str):
                    state.evict(node, c)
                for node in sorted(wanted - current, key=str):
                    state.cache(node, c)
            stats.resolves_reverted += 1
            obs.count("adaptive.resolves_reverted")
        if trace.enabled:
            trace.instant(
                "adaptive.resolve",
                track="adaptive",
                args={
                    "epoch": epoch,
                    "chunk": chunk,
                    "accepted": improved,
                    "cost_before": before,
                    "cost_after": after,
                },
            )
        # Either way the optimizer had its shot at current demand:
        # re-anchor the reference so the chunk does not thrash.
        return _rebase_reference(reference, snapshot, chunk)

    def _move_phase(
        self,
        epoch: int,
        state: ProblemState,
        chunks: List[ChunkPlacement],
        move_chunks: List[int],
        weights,
        snapshot: DemandSnapshot,
        reference: DemandSnapshot,
        move_records: List[MoveRecord],
        stats: "_AdaptStats",
        obs,
        trace,
    ) -> DemandSnapshot:
        """Bounded never-worsen local moves on moderately-drifted chunks."""
        config = self.config
        problem = self.problem
        holders_map = {
            placement.chunk: list(placement.caches) for placement in chunks
        }
        evaluator = MoveEvaluator(
            state, holders_map, weights, min_gain=config.min_gain
        )
        sanitize = contracts.sanitize_enabled()
        fresh_prev = (
            fresh_weighted_access_cost(state, evaluator.holders, weights)
            if sanitize
            else 0.0
        )
        changed: set = set()
        for chunk in move_chunks:
            if stats.moves_accepted >= config.max_moves_per_epoch:
                break
            for kind, node, transfer in self._candidates(
                state, evaluator, snapshot, chunk
            ):
                if stats.moves_accepted >= config.max_moves_per_epoch:
                    break
                stats.moves_considered += 1
                obs.count("adaptive.moves_considered")
                tracked_before = evaluator.total
                move = evaluator.try_move(kind, node, chunk, transfer)
                if move is None:
                    continue
                stats.moves_accepted += 1
                stats.adaptation_cost += move.transfer_cost
                changed.add(chunk)
                obs.count("adaptive.moves_accepted")
                move_records.append(
                    MoveRecord(
                        epoch=epoch,
                        kind=move.kind,
                        node=str(move.node),
                        chunk=move.chunk,
                        gain=move.gain,
                        transfer_cost=move.transfer_cost,
                    )
                )
                if trace.enabled:
                    trace.instant(
                        "adaptive.move",
                        track="adaptive",
                        args={
                            "epoch": epoch,
                            "kind": move.kind,
                            "node": str(move.node),
                            "chunk": move.chunk,
                            "gain": move.gain,
                        },
                    )
                if sanitize:
                    fresh_after = fresh_weighted_access_cost(
                        state, evaluator.holders, weights
                    )
                    contracts.check_adaptive_move(
                        move=move.kind,
                        node=str(move.node),
                        chunk=move.chunk,
                        tracked_before=tracked_before,
                        tracked_after=evaluator.total,
                        fresh_before=fresh_prev,
                        fresh_after=fresh_after,
                        transfer_cost=move.transfer_cost,
                        context=f"adaptive epoch {epoch}",
                    )
                    fresh_prev = fresh_after
        for chunk in sorted(changed):
            chunks[chunk] = rebuild_chunk_placement(state, chunk)
            reference = _rebase_reference(reference, snapshot, chunk)
        return reference

    def _candidates(
        self,
        state: ProblemState,
        evaluator: MoveEvaluator,
        snapshot: DemandSnapshot,
        chunk: int,
    ) -> List[Tuple[str, Node, float]]:
        """Deterministic candidate moves for one dirty chunk.

        Replica adds first (top estimated-demand clients that can still
        cache), then evicts (current holders, least-demanded first).
        Transfer costs are priced on the pre-move network, scaled by the
        paper's ``M`` (a replica shipment is a chunk transfer).
        """
        config = self.config
        scale = self.problem.dissemination_scale
        holders = evaluator.holders.get(chunk, [])
        holder_set = set(holders)
        demand = snapshot.chunk_clients(chunk)
        adds = [
            (client, share)
            for client, share in demand
            if client not in holder_set
            and client != self.problem.producer
            and state.can_cache(client)
        ]
        adds.sort(key=lambda item: (-item[1], str(item[0])))
        candidates: List[Tuple[str, Node, float]] = []
        for client, _ in adds[: config.max_cache_candidates]:
            transfer = replica_transfer_cost(state, holders, client) * scale
            candidates.append((MOVE_CACHE, client, transfer))
        evicts = sorted(
            holders,
            key=lambda node: (snapshot.share(node, chunk), str(node)),
        )
        candidates.extend((MOVE_EVICT, node, 0.0) for node in evicts)
        return candidates

    # ------------------------------------------------------------------
    @staticmethod
    def _check_holders(
        state: ProblemState, chunks: List[ChunkPlacement]
    ) -> None:
        """REPRO_SANITIZE: placement objects agree with live storage."""
        for placement in chunks:
            stored = set(state.storage.holders(placement.chunk))
            if stored != set(placement.caches):
                raise InvariantError(
                    "adaptive.holders",
                    f"chunk {placement.chunk}: placement caches "
                    f"{sorted(map(str, placement.caches))} diverge from "
                    f"live storage {sorted(map(str, stored))}",
                )


class _AdaptStats:
    """Mutable per-epoch adaptation tallies (not user-facing)."""

    def __init__(self) -> None:
        self.drift_max = 0.0
        self.dirty_chunks = 0
        self.moves_considered = 0
        self.moves_accepted = 0
        self.resolves = 0
        self.resolves_reverted = 0
        self.adaptation_cost = 0.0


def _window(
    stream: Iterator[RequestBatch],
    carry: List[Tuple[RequestBatch, int]],
    count: int,
    demand: Counter,
) -> Iterator[RequestBatch]:
    """The next ``count`` requests of ``stream``, in batches.

    First the unread rest of the batch ``carry`` holds (with the offset
    of its first unread request), then whole batches, then a last batch
    cut to fit, whose rest stays in ``carry`` for the next window.  No
    batch grows, and the rest is kept without a copy; the window ends
    early only where the stream does.  Each batch's ``(client, chunk)``
    pairs are counted into ``demand`` as it is yielded
    (:func:`_count_pairs`).
    """
    while count > 0:
        batch, start = carry.pop() if carry else (next(stream, None), 0)
        if batch is None:
            return
        times, clients, chunks = batch
        stop = min(len(times), start + count)
        if stop < len(times):
            carry.append((batch, stop))
        if stop - start < len(times):
            batch = (times[start:stop], clients[start:stop], chunks[start:stop])
        count -= stop - start
        _count_pairs(demand, batch)
        yield batch


def _count_pairs(demand: Counter, batch: RequestBatch) -> None:
    """Add the ``(client, chunk)`` pair of every request of ``batch`` to
    ``demand``, in stream order (first occurrence fixes key order)."""
    _, clients, chunks = batch
    demand.update(zip(clients, chunks))


def _rebase_reference(
    reference: DemandSnapshot, snapshot: DemandSnapshot, chunk: int
) -> DemandSnapshot:
    """Replace one chunk's reference demand row with the current estimate."""
    pairs = {
        key: value
        for key, value in reference.pairs().items()
        if key[1] != chunk
    }
    for key, value in snapshot.pairs().items():
        if key[1] == chunk:
            pairs[key] = value
    return DemandSnapshot(pairs)


def run_adaptive(
    problem: CachingProblem,
    workload: Workload,
    config: Optional[AdaptiveConfig] = None,
) -> AdaptiveReport:
    """One-call entry point: build the controller, run the loop."""
    controller = AdaptiveController(problem, workload, config)
    return controller.run()
