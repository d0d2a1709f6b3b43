"""Request-plane serving engine for the accessing phase (layer 4).

The paper prices the accessing phase as a one-shot cost sum; this
package *serves* it: seeded workload generators
(:mod:`repro.serve.workloads`) replayed against any placement (:mod:`repro.serve.engine`), with pluggable
replica selection (:mod:`repro.serve.selection`) and a deterministic
:class:`~repro.serve.stats.ServeReport` of throughput, tail latency, and
served-load fairness (:mod:`repro.serve.stats`).

Quickstart::

    from repro.workloads import grid_problem
    from repro.core.approximation import solve_approximation
    from repro.serve import ZipfWorkload, serve_placement

    placement = solve_approximation(grid_problem(6))
    report = serve_placement(placement, ZipfWorkload(seed=2017), 10_000)
    print(report.render())
"""

from repro.serve.engine import (
    DEFAULT_ENGINE_SEED,
    ServeConfig,
    ServeEngine,
    serve_placement,
)
from repro.serve.selection import (
    SELECTION_POLICIES,
    CheapestCost,
    LeastLoaded,
    PowerOfTwoChoices,
    ReplicaSelector,
    ServeView,
    make_selector,
)
from repro.serve.stats import SERVE_SCHEMA, ServeReport, build_report
from repro.serve.workloads import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_RATE,
    DEFAULT_SEED,
    WORKLOADS,
    FlashCrowdWorkload,
    HotspotWorkload,
    Request,
    RequestBatch,
    UniformWorkload,
    Workload,
    ZipfWorkload,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_ENGINE_SEED",
    "DEFAULT_RATE",
    "DEFAULT_SEED",
    "SELECTION_POLICIES",
    "SERVE_SCHEMA",
    "WORKLOADS",
    "CheapestCost",
    "FlashCrowdWorkload",
    "HotspotWorkload",
    "LeastLoaded",
    "PowerOfTwoChoices",
    "ReplicaSelector",
    "Request",
    "RequestBatch",
    "ServeConfig",
    "ServeEngine",
    "ServeReport",
    "ServeView",
    "UniformWorkload",
    "Workload",
    "ZipfWorkload",
    "build_report",
    "make_selector",
    "serve_placement",
]
