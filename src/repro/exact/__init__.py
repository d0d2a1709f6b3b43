"""Exact solvers for the per-chunk problem: the ILP of Eqs. 3–7 (the test
oracle), subset enumeration, and the local search ``solve_exact`` runs."""

from repro.exact.brute_force import EnumerationResult, enumerate_optimal
from repro.exact.ilp_formulation import (
    ChunkModel,
    ChunkSolution,
    build_chunk_model,
)
from repro.exact.local_search import optimize_chunk_local
from repro.exact.solver import solve_exact, solve_exact_chunk

__all__ = [
    "ChunkModel",
    "ChunkSolution",
    "EnumerationResult",
    "build_chunk_model",
    "enumerate_optimal",
    "optimize_chunk_local",
    "solve_exact",
    "solve_exact_chunk",
]
