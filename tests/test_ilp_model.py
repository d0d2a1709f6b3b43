"""Unit tests for Model construction and solving."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleError, ModelError, SolverError, UnboundedError
from repro.ilp import MAXIMIZE, MINIMIZE, Model, lin_sum


class TestConstruction:
    def test_variable_kinds(self):
        m = Model()
        x = m.continuous_var("x")
        y = m.integer_var("y", lower=0, upper=10)
        z = m.binary_var("z")
        assert not x.is_integral
        assert y.is_integral
        assert z.domain == "binary"
        assert z.lower == 0.0 and z.upper == 1.0

    def test_duplicate_names_rejected(self):
        m = Model()
        m.binary_var("x")
        with pytest.raises(ModelError):
            m.binary_var("x")

    def test_auto_names(self):
        m = Model()
        a = m.continuous_var()
        b = m.continuous_var()
        assert a.name != b.name

    def test_bad_bounds_rejected(self):
        m = Model()
        with pytest.raises(ModelError):
            m.integer_var("x", lower=5, upper=1)

    def test_bad_sense_rejected(self):
        with pytest.raises(ModelError):
            Model(sense="sideways")

    def test_add_constraint_requires_constraint(self):
        m = Model()
        x = m.binary_var("x")
        with pytest.raises(ModelError):
            m.add_constraint(True)  # comparison already evaluated

    def test_variable_by_name(self):
        m = Model()
        x = m.binary_var("picky")
        assert m.variable_by_name("picky") is x

    def test_foreign_variable_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.binary_var("x")
        m2.set_objective(x + 0.0)
        with pytest.raises(ModelError):
            m2.to_matrix_form()

    def test_counts(self):
        m = Model()
        x = m.binary_var()
        y = m.binary_var()
        m.add_constraint(x + y <= 1)
        assert m.num_variables == 2
        assert m.num_constraints == 1


class TestSolving:
    def test_simple_lp(self):
        m = Model()
        x = m.continuous_var("x", upper=4)
        y = m.continuous_var("y", upper=3)
        m.add_constraint(x + y <= 5)
        m.set_objective(-(x + 2 * y))  # maximize x + 2y via minimize
        sol = m.solve()
        assert sol.objective == pytest.approx(-8.0)

    def test_maximize_sense(self):
        m = Model(sense=MAXIMIZE)
        x = m.continuous_var("x", upper=10)
        m.set_objective(3 * x + 1)
        sol = m.solve()
        assert sol.objective == pytest.approx(31.0)
        assert sol.value(x) == pytest.approx(10.0)

    def test_knapsack(self):
        m = Model(sense=MAXIMIZE)
        values = [6, 10, 12]
        weights = [1, 2, 3]
        x = [m.binary_var(f"x{i}") for i in range(3)]
        m.add_constraint(lin_sum(w * xi for w, xi in zip(weights, x)) <= 5)
        m.set_objective(lin_sum(v * xi for v, xi in zip(values, x)))
        sol = m.solve()
        assert sol.objective == pytest.approx(22.0)
        assert sol.value(x[1]) == 1.0 and sol.value(x[2]) == 1.0

    def test_integer_rounding(self):
        m = Model()
        n = m.integer_var("n", lower=0, upper=10)
        m.add_constraint(2 * n >= 7)
        m.set_objective(n + 0.0)
        sol = m.solve()
        assert sol.value(n) == 4.0

    def test_infeasible_raises(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constraint(x >= 2)
        m.set_objective(x + 0.0)
        with pytest.raises(InfeasibleError):
            m.solve()

    def test_unbounded_raises(self):
        m = Model(sense=MAXIMIZE)
        x = m.continuous_var("x")  # lb 0, no ub
        m.set_objective(x + 0.0)
        with pytest.raises(UnboundedError):
            m.solve()

    def test_equality_constraints(self):
        m = Model()
        x = m.continuous_var("x")
        y = m.continuous_var("y")
        m.add_constraint(x + y == 4)
        m.add_constraint(x - y == 2)
        m.set_objective(x + y)
        sol = m.solve()
        assert sol.value(x) == pytest.approx(3.0)
        assert sol.value(y) == pytest.approx(1.0)

    def test_solution_expression_value(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constraint(x >= 1)
        m.set_objective(x + 0.0)
        sol = m.solve()
        assert sol.value(2 * x + 1) == pytest.approx(3.0)
        assert sol[x] == 1.0

    def test_objective_constant_only(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constraint(x <= 1)
        m.set_objective(42)
        sol = m.solve()
        assert sol.objective == pytest.approx(42.0)

    def test_free_variable(self):
        m = Model()
        x = m.continuous_var("x", lower=None)
        m.add_constraint(x >= -5)
        m.set_objective(x + 0.0)
        sol = m.solve()
        assert sol.objective == pytest.approx(-5.0)


    def test_non_optimal_status_raises_solver_error(self, monkeypatch):
        import scipy.optimize

        def stalled_milp(**kwargs):
            return SimpleNamespace(status=4, message="numerical trouble")

        monkeypatch.setattr(scipy.optimize, "milp", stalled_milp)
        m = Model("stalled")
        x = m.binary_var("x")
        m.set_objective(x + 0.0)
        with pytest.raises(SolverError, match="numerical trouble"):
            m.solve()


def _random_model(seed: int):
    """A random feasible 0/1 knapsack-style model and its item data."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    m = Model(f"rand{seed}", sense=MAXIMIZE)
    x = [m.binary_var(f"x{i}") for i in range(n)]
    weights = [int(w) for w in rng.integers(1, 10, n)]
    values = [int(v) for v in rng.integers(1, 20, n)]
    cap = sum(weights) // 2 + 1
    m.add_constraint(lin_sum(w * xi for w, xi in zip(weights, x)) <= cap)
    m.set_objective(lin_sum(v * xi for v, xi in zip(values, x)))
    return m, weights, values, cap


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_random_knapsack_matches_exhaustive(seed):
    m, weights, values, cap = _random_model(seed)
    best = max(
        sum(v for v, pick in zip(values, picks) if pick)
        for picks in itertools.product((0, 1), repeat=len(weights))
        if sum(w for w, pick in zip(weights, picks) if pick) <= cap
    )
    assert m.solve().objective == pytest.approx(best, abs=1e-6)
