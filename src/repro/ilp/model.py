"""The ILP/LP model container and its solver front-end.

A drop-in, from-scratch replacement for the subset of PuLP the paper's
brute-force evaluation needs (DESIGN.md §5): declare variables, add linear
constraints, set an objective, call :meth:`Model.solve`, which hands the
flattened model to :func:`scipy.optimize.milp` (the HiGHS solver bundled
with scipy).
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import InfeasibleError, ModelError, SolverError, UnboundedError
from repro.ilp.expression import (
    BINARY,
    CONTINUOUS,
    EQUAL,
    GREATER_EQUAL,
    INTEGER,
    LESS_EQUAL,
    Constraint,
    LinExpr,
    Variable,
)

MINIMIZE = "minimize"
MAXIMIZE = "maximize"


@dataclass
class Solution:
    """Result of a successful solve."""

    status: str
    objective: float
    values: Dict[Variable, float]

    def value(self, item: Union[Variable, LinExpr]) -> float:
        """Value of a variable or expression under this solution."""
        if isinstance(item, Variable):
            return self.values.get(item, 0.0)
        return item.value(self.values)

    def __getitem__(self, var: Variable) -> float:
        return self.values.get(var, 0.0)


@dataclass
class _MatrixForm:
    """Model flattened to matrices, in *minimization* orientation."""

    c: np.ndarray
    offset: float
    A_ub: Optional[np.ndarray]
    b_ub: Optional[np.ndarray]
    A_eq: Optional[np.ndarray]
    b_eq: Optional[np.ndarray]
    bounds: List[Tuple[Optional[float], Optional[float]]]
    integrality: np.ndarray


class Model:
    """A mixed-integer linear program under construction.

    Examples
    --------
    >>> m = Model("knapsack", sense=MAXIMIZE)
    >>> x = [m.binary_var(f"x{i}") for i in range(3)]
    >>> _ = m.add_constraint(2*x[0] + 3*x[1] + 4*x[2] <= 6, "cap")
    >>> m.set_objective(3*x[0] + 4*x[1] + 5*x[2])
    >>> sol = m.solve()
    >>> round(sol.objective)
    8
    """

    def __init__(self, name: str = "model", sense: str = MINIMIZE) -> None:
        if sense not in (MINIMIZE, MAXIMIZE):
            raise ModelError(f"unknown objective sense {sense!r}")
        self.name = name
        self.sense = sense
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self._names: Dict[str, Variable] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add_var(
        self,
        name: str,
        lower: Optional[float],
        upper: Optional[float],
        domain: str,
    ) -> Variable:
        if not name:
            name = f"v{len(self.variables)}"
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        if lower is not None and upper is not None and upper < lower:
            raise ModelError(f"variable {name!r} has upper {upper} < lower {lower}")
        var = Variable(name, lower, upper, domain, index=len(self.variables))
        self.variables.append(var)
        self._names[name] = var
        return var

    def continuous_var(
        self,
        name: str = "",
        lower: Optional[float] = 0.0,
        upper: Optional[float] = None,
    ) -> Variable:
        """Add a continuous variable (default domain ``x >= 0``)."""
        return self._add_var(name, lower, upper, CONTINUOUS)

    def integer_var(
        self,
        name: str = "",
        lower: Optional[float] = 0.0,
        upper: Optional[float] = None,
    ) -> Variable:
        """Add a general integer variable."""
        return self._add_var(name, lower, upper, INTEGER)

    def binary_var(self, name: str = "") -> Variable:
        """Add a 0/1 variable — the workhorse of the caching ILP."""
        return self._add_var(name, 0.0, 1.0, BINARY)

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built via expression comparison."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constraint expects an expression comparison such as "
                "`x + y <= 1`; did you pass a bool?"
            )
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{len(self.constraints)}"
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, expr: Union[LinExpr, Variable, float]) -> None:
        """Set the objective expression (sense fixed at construction)."""
        if isinstance(expr, Variable):
            expr = expr + 0.0
        elif isinstance(expr, (int, float)):
            expr = LinExpr(constant=float(expr))
        self.objective = expr

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def variable_by_name(self, name: str) -> Variable:
        """Look up a variable by name; raise ``KeyError`` if absent."""
        return self._names[name]

    # ------------------------------------------------------------------
    # Flattening
    # ------------------------------------------------------------------
    def to_matrix_form(self) -> _MatrixForm:
        """Flatten to minimization-oriented matrices for the solver."""
        n = len(self.variables)
        sign = 1.0 if self.sense == MINIMIZE else -1.0
        c = np.zeros(n)
        for var, coeff in self.objective.terms.items():
            self._check_owned(var)
            c[var.index] += sign * coeff
        offset = sign * self.objective.constant

        rows_ub: List[np.ndarray] = []
        rhs_ub: List[float] = []
        rows_eq: List[np.ndarray] = []
        rhs_eq: List[float] = []
        for constraint in self.constraints:
            row = np.zeros(n)
            for var, coeff in constraint.expr.terms.items():
                self._check_owned(var)
                row[var.index] += coeff
            rhs = constraint.rhs
            if constraint.sense == LESS_EQUAL:
                rows_ub.append(row)
                rhs_ub.append(rhs)
            elif constraint.sense == GREATER_EQUAL:
                rows_ub.append(-row)
                rhs_ub.append(-rhs)
            elif constraint.sense == EQUAL:
                rows_eq.append(row)
                rhs_eq.append(rhs)

        bounds = [(v.lower, v.upper) for v in self.variables]
        integrality = np.array(
            [1 if v.is_integral else 0 for v in self.variables], dtype=int
        )
        return _MatrixForm(
            c=c,
            offset=offset,
            A_ub=np.vstack(rows_ub) if rows_ub else None,
            b_ub=np.asarray(rhs_ub) if rhs_ub else None,
            A_eq=np.vstack(rows_eq) if rows_eq else None,
            b_eq=np.asarray(rhs_eq) if rhs_eq else None,
            bounds=bounds,
            integrality=integrality,
        )

    def _check_owned(self, var: Variable) -> None:
        if (
            var.index >= len(self.variables)
            or self.variables[var.index] is not var
        ):
            raise ModelError(f"variable {var.name!r} does not belong to model {self.name!r}")

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self) -> Solution:
        """Solve the model with HiGHS and return a :class:`Solution`.

        Raises
        ------
        InfeasibleError / UnboundedError
            When the model is proven infeasible or unbounded.
        SolverError
            When HiGHS stops without an optimum (iteration limit, numerical
            trouble...).
        """
        from scipy.optimize import Bounds, LinearConstraint, milp

        form = self.to_matrix_form()
        constraints = []
        if form.A_ub is not None:
            constraints.append(LinearConstraint(form.A_ub, -np.inf, form.b_ub))
        if form.A_eq is not None:
            constraints.append(LinearConstraint(form.A_eq, form.b_eq, form.b_eq))
        lower = [-np.inf if lb is None else lb for lb, _ in form.bounds]
        upper = [np.inf if ub is None else ub for _, ub in form.bounds]
        with _silence_native_stdout():
            result = milp(
                c=form.c,
                constraints=constraints or None,
                integrality=form.integrality,
                bounds=Bounds(lower, upper),
            )
        if result.status == 2:
            raise InfeasibleError(f"model {self.name!r} is infeasible")
        if result.status == 3:
            raise UnboundedError(f"model {self.name!r} is unbounded")
        if result.status != 0:
            raise SolverError(f"HiGHS failed on model {self.name!r}: {result.message}")

        sign = 1.0 if self.sense == MINIMIZE else -1.0
        values = {var: float(result.x[var.index]) for var in self.variables}
        # Snap integral variables onto the lattice for clean downstream use.
        for var in self.variables:
            if var.is_integral:
                values[var] = float(round(values[var]))
        return Solution(
            status="optimal",
            objective=sign * (float(result.fun) + form.offset),
            values=values,
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
