"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch one type to handle any library failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Raised for invalid graph operations (missing nodes, bad edges...)."""


class NodeNotFoundError(GraphError):
    """Raised when an operation references a node absent from the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError):
    """Raised when an operation references an edge absent from the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class DisconnectedGraphError(GraphError):
    """Raised when an algorithm requires a connected graph but got none."""


class NoPathError(GraphError):
    """Raised when no path exists between two nodes."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"no path between {source!r} and {target!r}")
        self.source = source
        self.target = target


class SolverError(ReproError):
    """Raised when an optimization solver fails or gets a bad setting."""


class ProblemError(ReproError):
    """Raised for invalid caching-problem definitions."""


class CapacityError(ProblemError):
    """Raised when cache placement exceeds a node's storage capacity."""


class InvariantError(ReproError):
    """Raised by the :mod:`repro.analysis.contracts` sanitizer when a
    runtime invariant (dual feasibility, storage monotonicity, message
    census conservation) is violated.  Only ever raised when
    ``REPRO_SANITIZE=1``."""

    def __init__(self, rule: str, message: str) -> None:
        super().__init__(f"[{rule}] {message}")
        self.rule = rule


class SimulationError(ReproError):
    """Raised for errors inside the discrete-event simulator."""


class ProtocolError(SimulationError):
    """Raised when the distributed protocol reaches an invalid state."""
