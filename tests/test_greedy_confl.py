"""Unit tests for the greedy fairness-aware ConFL heuristic."""

import pytest

from repro.core import build_confl_instance, solve_approximation
from repro.baselines import greedy_chunk_selection, solve_greedy_confl
from repro.workloads import grid_problem


class TestGreedySelection:
    def test_selects_facilities_only(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        selected = greedy_chunk_selection(instance)
        assert set(selected) <= set(instance.facilities)
        assert small_problem.producer not in selected

    def test_no_duplicates(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        selected = greedy_chunk_selection(instance)
        assert len(selected) == len(set(selected))

    def test_each_pick_improved_the_objective(self, small_problem):
        """Greedy invariant: the chosen set beats serving all from the
        producer on the chunk objective it optimizes."""
        instance = build_confl_instance(small_problem.new_state())
        selected = greedy_chunk_selection(instance)
        row = instance.connect_matrix.tolist()
        producer_only = sum(row[0])
        with_caches = sum(
            min(
                row[instance.row_of[s]][c]
                for s in [instance.producer] + selected
            )
            for c in range(len(instance.clients))
        ) + sum(instance.open_cost[i] for i in selected)
        assert not selected or with_caches < producer_only

    def test_deterministic(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        assert greedy_chunk_selection(instance) == greedy_chunk_selection(instance)


class TestSolveGreedy:
    def test_feasible(self, paper_problem):
        placement = solve_greedy_confl(paper_problem)
        placement.validate()
        assert placement.algorithm == "greedy-confl"

    def test_fairness_feed_forward(self, paper_problem):
        placement = solve_greedy_confl(paper_problem)
        sets = [c.caches for c in placement.chunks]
        assert len(set(sets)) > 1  # not the same set every chunk

    def test_capacity_respected(self):
        problem = grid_problem(3, num_chunks=8, capacity=2)
        placement = solve_greedy_confl(problem)
        placement.validate()
        assert max(placement.loads().values()) <= 2

    def test_competitive_with_approximation(self, paper_problem):
        """No bound, but practically in the same league (Sec. II's point
        about greedy ConFL heuristics)."""
        greedy = solve_greedy_confl(paper_problem)
        appx = solve_approximation(paper_problem)
        g = greedy.stage_cost_total()
        a = appx.stage_cost_total()
        greedy_total = g.access + g.dissemination
        appx_total = a.access + a.dissemination
        assert greedy_total <= 1.5 * appx_total

    def test_registered_in_experiments(self, small_problem):
        from repro.experiments import GREEDY, run_algorithms

        placements = run_algorithms(small_problem, [GREEDY])
        assert placements[GREEDY].algorithm == "greedy-confl"
