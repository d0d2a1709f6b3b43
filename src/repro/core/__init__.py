"""Core of the reproduction: cost model, problem types, Algorithm 1.

Public entry points:

* :class:`CachingProblem` — define an instance (graph, producer, chunks,
  capacities, objective weights).
* :func:`solve_approximation` — the paper's Algorithm 1.
* :class:`CachePlacement` — the result type shared by every algorithm.
"""

from repro.core.approximation import (
    ApproximationConfig,
    TimedPlacement,
    solve_approximation,
    solve_approximation_timed,
)
from repro.core.commit import commit_chunk, nearest_server_assignment
from repro.core.confl import ConFLInstance, build_confl_instance
from repro.core.costs import (
    CostModel,
    PATH_POLICY_CONTENTION,
    PATH_POLICY_HOPS,
    fairness_degree_cost,
    node_contention_cost,
    path_contention_cost,
)
from repro.core.dual_ascent import DualAscentConfig, DualAscentResult, dual_ascent
from repro.core.placement import (
    CachePlacement,
    ChunkPlacement,
    StageCost,
    edge_key,
)
from repro.core.problem import DEFAULT_CAPACITY, CachingProblem, ProblemState
from repro.core.storage import StorageState

__all__ = [
    "ApproximationConfig",
    "CachePlacement",
    "CachingProblem",
    "ChunkPlacement",
    "ConFLInstance",
    "CostModel",
    "DEFAULT_CAPACITY",
    "DualAscentConfig",
    "DualAscentResult",
    "PATH_POLICY_CONTENTION",
    "PATH_POLICY_HOPS",
    "ProblemState",
    "StageCost",
    "StorageState",
    "TimedPlacement",
    "build_confl_instance",
    "commit_chunk",
    "dual_ascent",
    "nearest_server_assignment",
    "edge_key",
    "fairness_degree_cost",
    "node_contention_cost",
    "path_contention_cost",
    "solve_approximation",
    "solve_approximation_timed",
]
