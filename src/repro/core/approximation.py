"""Algorithm 1 — the fair caching approximation algorithm.

Iterates the dual-ascent ConFL solver once per chunk (Sec. IV-A):

1. Rebuild fairness costs ``f_i`` and contention costs ``c_ij`` from the
   *current* storage state (lines 5–16) — nodes that cached earlier chunks
   become more expensive to pick again, which is the fairness mechanism.
2. Run the primal-dual dual ascent (lines 17–46) to select the ADMIN set
   ``A`` of caching nodes and the client assignments.
3. Phase 2: connect ``A ∪ {producer}`` with a Steiner tree on the
   contention-weighted topology (line 47) and disseminate the chunk.
4. Commit the chunk to storage (``L(n) ← A``, line 48) and continue.

Theorem 1 shows this per-chunk iteration preserves the 6.55 approximation
ratio of the underlying ConFL algorithm;
``tests/test_paper_shapes.py::test_approx_ratio`` checks the ratio
empirically against the exact solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.core.commit import commit_chunk
from repro.core.confl import build_confl_instance
from repro.core.dual_ascent import DualAscentConfig, dual_ascent
from repro.core.placement import CachePlacement, ChunkPlacement
from repro.core.problem import CachingProblem, ProblemState
from repro.obs import get_recorder

ALGORITHM_NAME = "approximation"


@dataclass(frozen=True)
class ApproximationConfig:
    """Configuration of Algorithm 1.

    Attributes
    ----------
    dual:
        Dual-ascent knobs (bid step ``U_α``, SPAN threshold ``M``).
    reassign_clients:
        After the ADMIN set is fixed, reassign every client to its
        cheapest open server (nearest-copy semantics of Sec. V-A) instead
        of keeping the freeze-time target.  On by default; turning it off
        exposes the raw primal-dual assignment for analysis.
    """

    dual: DualAscentConfig = DualAscentConfig()
    reassign_clients: bool = True


def solve_approximation(
    problem: CachingProblem, config: Optional[ApproximationConfig] = None
) -> CachePlacement:
    """Run Algorithm 1 on ``problem`` and return the full placement."""
    config = config or ApproximationConfig()
    state = problem.new_state()
    placements: List[ChunkPlacement] = []
    with get_recorder().timer("solve_approximation"):
        for chunk in problem.chunks:
            placements.append(place_one_chunk(state, chunk, config))
    placement = CachePlacement(
        problem=problem, chunks=placements, algorithm=ALGORITHM_NAME
    )
    return placement


def place_one_chunk(
    state: ProblemState, chunk: int, config: ApproximationConfig
) -> ChunkPlacement:
    """Place a single chunk with the current state; commits to storage."""
    obs = get_recorder()
    with obs.timer("cost_rebuild"):
        instance = build_confl_instance(state)
    with obs.timer("dual_ascent"):
        result = dual_ascent(instance, config.dual)
    admins = list(result.admins)
    obs.count("appx.chunks_placed")
    # Freeze-time assignment, or nearest-copy reassignment (Sec. V-A).
    assignment = None if config.reassign_clients else result.assignment
    return commit_chunk(state, chunk, admins, assignment=assignment)


@dataclass
class TimedPlacement:
    """A placement plus per-chunk wall-clock timings (for Fig. 5)."""

    placement: CachePlacement
    per_chunk_seconds: List[float]

    @property
    def total_seconds(self) -> float:
        return sum(self.per_chunk_seconds)


def solve_approximation_timed(
    problem: CachingProblem, config: Optional[ApproximationConfig] = None
) -> TimedPlacement:
    """Like :func:`solve_approximation` but timing each chunk placement."""
    config = config or ApproximationConfig()
    state = problem.new_state()
    placements: List[ChunkPlacement] = []
    timings: List[float] = []
    with get_recorder().timer("solve_approximation"):
        for chunk in problem.chunks:
            start = time.perf_counter()
            placements.append(place_one_chunk(state, chunk, config))
            timings.append(time.perf_counter() - start)
    placement = CachePlacement(
        problem=problem, chunks=placements, algorithm=ALGORITHM_NAME
    )
    return TimedPlacement(placement=placement, per_chunk_seconds=timings)
