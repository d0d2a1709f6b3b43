"""The per-chunk ConFL ILP (Eqs. 3–7) in compact multi-commodity flow form.

Eq. 6 is a cut-set constraint over *every* node subset — exponentially
many rows.  We replace it with the standard disaggregated (one commodity
per facility) flow encoding of Steiner connectivity, which is equivalent
for the integral problem and polynomial (O(|F|·|E|) rows):

* one unit of commodity ``k`` leaves the producer iff facility ``k`` is
  open, and facility ``k`` consumes it,
* commodity ``k`` may only traverse edges bought for dissemination
  (``f^k_a ≤ z_e``),

so the ``z_e = 1`` edges necessarily connect all open facilities to the
producer.  The objective and constraints (4), (5), (7) are verbatim.

The model is built from a :class:`~repro.core.confl.ConFLInstance`, i.e.
with the fairness/contention costs of the *current* storage state, directly
as the sparse arrays :func:`scipy.optimize.milp` (HiGHS) takes.  It is the
test suite's MILP oracle for :func:`~repro.exact.solver.solve_exact`.
scipy is imported only when a model is built or solved, so
``import repro`` stays free of it.

Columns, in order: ``y_i`` per facility; ``x_ij`` per server × client
(servers are the producer, then the facilities); ``z_e`` per edge; then
per facility ``k`` the two arc flows ``f^k_{uv}``, ``f^k_{vu}`` of every
edge.  Rows: the ``≤`` block holds (5) as ``-y_i + x_ij ≤ 0``, then per
facility the two ``f ≤ z`` caps of every edge; the ``=`` block holds (4),
then per facility the flow conservation of the producer followed by the
other nodes.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Tuple

import numpy as np

from repro.core.confl import ConFLInstance
from repro.errors import SolverError

Node = Hashable


@dataclass(frozen=True)
class ChunkSolution:
    """The optimum of a :class:`ChunkModel`: objective and column values."""

    objective: float
    x: np.ndarray


@dataclass
class ChunkModel:
    """The built MILP plus the columns needed to read the solution.

    ``A_ub @ x ≤ 0`` and ``A_eq @ x = b_eq`` are the two row blocks;
    every column is ``≥ 0`` and at most its ``upper``.  ``open_vars``,
    ``assign_vars`` and ``edge_vars`` map each ``y_i``, ``x_ij`` and
    ``z_e`` to its column index.
    """

    c: np.ndarray
    integrality: np.ndarray
    upper: np.ndarray
    A_ub: Any
    A_eq: Any
    b_eq: np.ndarray
    open_vars: Dict[Node, int]
    assign_vars: Dict[Tuple[Node, Node], int]
    edge_vars: Dict[Tuple[Node, Node], int]

    def solve(self) -> ChunkSolution:
        """Solve with HiGHS through :func:`scipy.optimize.milp`.

        The model is always feasible (the producer serves every client)
        and bounded (every column lies in [0, 1]: the binaries by their
        bounds, each flow by its ``f ≤ z`` cap), so any status but 0 is a
        :class:`SolverError`.
        """
        from scipy.optimize import Bounds, LinearConstraint, milp

        with _silence_native_stdout():
            result = milp(
                c=self.c,
                constraints=[
                    LinearConstraint(self.A_ub, -np.inf, 0.0),
                    LinearConstraint(self.A_eq, self.b_eq, self.b_eq),
                ],
                integrality=self.integrality,
                bounds=Bounds(np.zeros(len(self.c)), self.upper),
            )
        if result.status != 0:
            raise SolverError(f"HiGHS failed on the chunk model: {result.message}")
        return ChunkSolution(objective=float(result.fun), x=result.x)

    def extract(
        self, solution: ChunkSolution
    ) -> Tuple[List[Node], Dict[Node, Node], List[Tuple[Node, Node]]]:
        """Read (caches, assignment, tree_edges) from a solved model."""
        x = solution.x
        caches = [node for node, col in self.open_vars.items() if x[col] > 0.5]
        assignment: Dict[Node, Node] = {}
        for (server, client), col in self.assign_vars.items():
            if x[col] > 0.5:
                assignment[client] = server
        tree_edges = [edge for edge, col in self.edge_vars.items() if x[col] > 0.5]
        return caches, assignment, tree_edges


def build_chunk_model(instance: ConFLInstance) -> ChunkModel:
    """Build the single-chunk ILP from a ConFL instance snapshot.

    Eq. 6 is encoded as one flow commodity per facility with per-arc
    capacity ``z_e``, whose LP relaxation forces ``z_e ≥ max_k f^k_a``
    (a single shared commodity would only force ``z_e ≥ Σ_k f^k_a / |F|``).

    A deterministic, strictly increasing micro-epsilon is added to each
    facility's opening cost: on the first chunk all ``f_i = 0`` (empty
    caches), leaving the optimum massively degenerate, and unbroken
    symmetry is what makes branch-and-bound crawl.  The epsilons (< 1e-4
    total) are orders of magnitude below any real cost difference, so the
    selected optimum is an exact optimum of the unperturbed model too.
    """
    producer = instance.producer
    clients = list(instance.clients)
    facilities = [
        f for f in instance.facilities if math.isfinite(instance.open_cost[f])
    ]
    servers = [producer] + facilities
    graph = instance.steiner_graph
    edges = [(u, v) for u, v, _ in graph.edges()]
    nodes = [producer] + [n for n in graph.nodes() if n != producer]
    n_f, n_c, n_s, n_e, n_n = (
        len(facilities), len(clients), len(servers), len(edges), len(nodes),
    )

    # Column offsets of the y, x, z and flow blocks.
    x0 = n_f
    z0 = x0 + n_s * n_c
    f0 = z0 + n_e
    n_cols = f0 + n_f * 2 * n_e

    open_vars = {i: r for r, i in enumerate(facilities)}
    assign_vars = {
        (i, j): x0 + s * n_c + c
        for s, i in enumerate(servers)
        for c, j in enumerate(clients)
    }
    edge_vars = {e: z0 + k for k, e in enumerate(edges)}

    # Objective (Eq. 8's inner problem): fairness + access + M·dissemination.
    # Per-facility micro-epsilons (see docstring): break the massive
    # symmetry of the f_i = 0 first chunk, and prevent the solver from
    # opening cost-free client-less facilities.
    c = np.zeros(n_cols)
    c[:x0] = [
        instance.open_cost[i] + 1e-4 + 1e-6 * rank
        for rank, i in enumerate(facilities)
    ]
    rows = [instance.row_of[i] for i in servers]
    c[x0:z0] = instance.connect_matrix[rows].ravel()
    c[z0:f0] = [
        instance.dissemination_scale * graph.weight(u, v) for u, v in edges
    ]

    commodity = np.arange(n_f)[:, None]
    facility_cols = np.arange(n_f)

    # ≤ block.  Constraint (5), serving requires caching: -y_i + x_ij ≤ 0
    # (the producer always serves).  Then Eq. 6's caps f^k_a ≤ z_e, one
    # row per flow column, in flow column order.
    assign_rows = (commodity * n_c + np.arange(n_c)).ravel()
    cap_rows = n_f * n_c + np.arange(n_f * 2 * n_e)
    A_ub = _coo(
        [
            (assign_rows, np.repeat(facility_cols, n_c), -1.0),
            (assign_rows, x0 + n_c + assign_rows, 1.0),
            (cap_rows, f0 + np.arange(n_f * 2 * n_e), 1.0),
            (cap_rows, z0 + np.tile(np.repeat(np.arange(n_e), 2), n_f), -1.0),
        ],
        (len(assign_rows) + len(cap_rows), n_cols),
    )

    # = block.  Constraint (4), every client is served exactly once; then
    # Eq. 6's flow conservation of commodity k at every node: net outflow
    # y_k at the producer, -y_k at facility k, 0 elsewhere.
    position = {node: p for p, node in enumerate(nodes)}
    tail = np.array([position[u] for u, _ in edges], dtype=np.int64)
    head = np.array([position[v] for _, v in edges], dtype=np.int64)
    sink = np.array([position[k] for k in facilities], dtype=np.int64)
    node_rows = n_c + commodity * n_n
    forward = f0 + commodity * 2 * n_e + 2 * np.arange(n_e)  # arc u→v
    A_eq = _coo(
        [
            (np.tile(np.arange(n_c), n_s), x0 + np.arange(n_s * n_c), 1.0),
            (node_rows + tail, forward, 1.0),
            (node_rows + head, forward, -1.0),
            (node_rows + head, forward + 1, 1.0),  # arc v→u
            (node_rows + tail, forward + 1, -1.0),
            (node_rows, commodity, -1.0),
            (node_rows.ravel() + sink, facility_cols, 1.0),
        ],
        (n_c + n_f * n_n, n_cols),
    )

    binary = np.arange(n_cols) < f0
    return ChunkModel(
        c=c,
        integrality=binary.astype(int),
        upper=np.where(binary, 1.0, np.inf),
        A_ub=A_ub,
        A_eq=A_eq,
        b_eq=np.concatenate([np.ones(n_c), np.zeros(n_f * n_n)]),
        open_vars=open_vars,
        assign_vars=assign_vars,
        edge_vars=edge_vars,
    )


def _coo(pieces, shape):
    """A COO array from ``(rows, cols, value)`` pieces: ``rows`` and
    ``cols`` broadcast against each other, ``value`` is one coefficient."""
    from scipy.sparse import coo_array

    rows, cols, data = [], [], []
    for piece_rows, piece_cols, value in pieces:
        piece_rows, piece_cols = np.broadcast_arrays(piece_rows, piece_cols)
        rows.append(piece_rows.ravel())
        cols.append(piece_cols.ravel())
        data.append(np.full(piece_rows.size, value))
    return coo_array(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape,
    )


@contextlib.contextmanager
def _silence_native_stdout() -> Iterator[None]:
    """Redirect C-level stdout to /dev/null for the duration.

    HiGHS (inside scipy) prints debug lines directly to the process's
    stdout, bypassing Python's ``sys.stdout``; an fd-level redirect is the
    only way to keep solver runs quiet (and ``--json`` stdout parseable).
    """
    try:
        stdout_fd = os.dup(1)
    except OSError:  # pragma: no cover - no real stdout (embedded etc.)
        yield
        return
    try:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), 1)
            try:
                yield
            finally:
                os.dup2(stdout_fd, 1)
    finally:
        os.close(stdout_fd)
