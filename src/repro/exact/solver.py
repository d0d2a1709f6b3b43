"""The brute-force exact solver (``Brtf`` in the figures).

The paper obtains its optimum "by brute-force" with the PuLP modeler
(Sec. V-A), iterating the per-chunk problem of Eq. 8: solve one chunk's
problem with the current fairness/contention costs, commit, and
continue — exactly the iteration scheme Theorem 1 analyses, so the
empirical ratio ``Appx / Brtf`` is the quantity bounded by 6.55.

Each chunk is solved by multi-start add/drop/swap local search with exact
Dreyfus–Wagner Steiner pricing (:mod:`repro.exact.local_search`), warm
started from the dual-ascent admins.  The test suite checks it against two
independent exact oracles on every instance small enough for them: subset
enumeration (:mod:`repro.exact.brute_force`) and the MILP of Eqs. 3–7
(:mod:`repro.exact.ilp_formulation`, solved by HiGHS), which is far too
slow for the paper's 4×4/6×6 figures (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import List

from repro.core.commit import commit_chunk
from repro.core.confl import build_confl_instance
from repro.core.dual_ascent import dual_ascent
from repro.core.placement import CachePlacement, ChunkPlacement, edge_key
from repro.core.problem import CachingProblem, ProblemState
from repro.exact.local_search import optimize_chunk_local

ALGORITHM_NAME = "bruteforce"


def solve_exact_chunk(state: ProblemState, chunk: int) -> ChunkPlacement:
    """Optimally place one chunk under the current storage state."""
    instance = build_confl_instance(state)
    warm_start = dual_ascent(instance).admins
    caches, assignment, tree_edges, _ = optimize_chunk_local(
        instance, starts=[warm_start]
    )
    return commit_chunk(
        state,
        chunk,
        caches,
        assignment=assignment,
        tree_edges=frozenset(edge_key(u, v) for u, v in tree_edges),
    )


def solve_exact(problem: CachingProblem) -> CachePlacement:
    """Run the iterated exact solver over all chunks of ``problem``.

    Warning: still exponential in the worst case — the paper notes brute
    force "fails to obtain results within meaningful time" beyond ~100
    nodes.
    """
    state = problem.new_state()
    placements: List[ChunkPlacement] = [
        solve_exact_chunk(state, chunk) for chunk in problem.chunks
    ]
    return CachePlacement(
        problem=problem, chunks=placements, algorithm=ALGORITHM_NAME
    )
