"""Exhaustive reference bipartitioner."""

import random

import pytest

from hypart import (Hypergraph, InfeasibleBalanceError, max_imbalance,
                    partition_cost)

from conftest import naive_cost, random_hypergraph
from reference import brute_force_bipartition


class TestBruteForce:
    def test_path_optimum(self, path4):
        result = brute_force_bipartition(path4, 0.1)
        assert result.best_cost == 1
        assert partition_cost(path4, result.partition) == 1
        assert max_imbalance(path4, result.partition) <= 0.1

    def test_forced_split(self):
        h = Hypergraph(2, [[0, 1]], hyperedge_weight=[7])
        result = brute_force_bipartition(h, 0.5)
        assert result.best_cost == 7
        assert result.count_of_optima == 1

    def test_all_unit_hyperedges(self):
        h = Hypergraph(6, [[i] for i in range(6)])
        assert brute_force_bipartition(h, 0.1).best_cost == 0

    def test_too_many_vertices(self):
        h = Hypergraph(21, [])
        with pytest.raises(ValueError):
            brute_force_bipartition(h, 0.1)

    def test_infeasible_balance(self):
        # Three unit vertices cannot split within two percent of 1.5.
        h = Hypergraph(3, [[0, 1, 2]])
        with pytest.raises(InfeasibleBalanceError):
            brute_force_bipartition(h, 0.02)

    def test_result_is_feasible_and_consistent(self):
        rng = random.Random(67)
        for _ in range(30):
            h = random_hypergraph(rng, min_vertices=6, max_vertices=12,
                                  size_weights=rng.random() < 0.5)
            if h.num_vertices % 2:
                continue
            result = brute_force_bipartition(h, 0.1)
            assert partition_cost(h, result.partition) == result.best_cost
            assert naive_cost(h, result.partition.assignment) == result.best_cost
            assert max_imbalance(h, result.partition) <= 0.1 + 1e-9
            assert result.count_of_optima >= 1

    def test_no_balanced_split_beats_it(self):
        rng = random.Random(73)
        for _ in range(15):
            h = random_hypergraph(rng, min_vertices=6, max_vertices=10)
            if h.num_vertices % 2:
                continue
            result = brute_force_bipartition(h, 0.2)
            n = h.num_vertices
            avg = h.total_vertex_weight / 2
            # Check against direct enumeration of all assignments.
            for mask in range(1, 1 << n):
                assignment = [(mask >> v) & 1 for v in range(n)]
                w1 = sum(h.vertex_weight[v] for v in range(n) if assignment[v])
                if abs(w1 - avg) > 0.2 * avg or w1 in (0, h.total_vertex_weight):
                    continue
                assert naive_cost(h, assignment) >= result.best_cost

    def test_relabeling_invariance(self):
        rng = random.Random(79)
        for _ in range(10):
            h = random_hypergraph(rng, min_vertices=6, max_vertices=10)
            if h.num_vertices % 2:
                continue
            base = brute_force_bipartition(h, 0.2).best_cost
            perm = list(range(h.num_vertices))
            rng.shuffle(perm)
            pins = [sorted(perm[v] for v in e) for e in h.pins_by_hyperedge]
            rng.shuffle(pins)
            relabeled = Hypergraph(h.num_vertices, pins)
            assert brute_force_bipartition(relabeled, 0.2).best_cost == base
