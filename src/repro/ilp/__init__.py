"""ILP substrate: a from-scratch PuLP-style modeler over scipy's HiGHS.

The paper's brute-force optimum uses the PuLP modeler (Sec. V-A); this
package replaces it offline with an equivalent modeling layer whose
:meth:`Model.solve` calls :func:`scipy.optimize.milp` (HiGHS).
"""

from repro.ilp.expression import (
    BINARY,
    CONTINUOUS,
    INTEGER,
    Constraint,
    LinExpr,
    Variable,
    lin_sum,
)
from repro.ilp.model import MAXIMIZE, MINIMIZE, Model, Solution

__all__ = [
    "BINARY",
    "CONTINUOUS",
    "Constraint",
    "INTEGER",
    "LinExpr",
    "MAXIMIZE",
    "MINIMIZE",
    "Model",
    "Solution",
    "Variable",
    "lin_sum",
]
