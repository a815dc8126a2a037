"""Initial candidate generation and selection."""

import random

import pytest

from hypart import (BalanceWindow, Hypergraph, InfeasibleBalanceError,
                    Partition, generate_candidate, max_imbalance,
                    partition_cost, select_best)

from conftest import (FixedOrderRng, random_hypergraph, random_weighted_hypergraph,
                      symmetric_window)


class TestGenerateCandidate:
    def test_two_vertices_any_method(self):
        h = Hypergraph(2, [[0, 1]])
        for method in ("random", "linear", "fm-seeded"):
            p = generate_candidate(h, method, random.Random(1), symmetric_window(h, 0.1))
            assert sorted(p.part_weight) == [1, 1]

    def test_linear_fills_start_part_to_target(self):
        h = Hypergraph(16, [])
        # The fixed-order source starts at part 0 and fills it with the
        # first eight vertices, leaving the rest for part 1.
        p = generate_candidate(h, "linear", FixedOrderRng(), symmetric_window(h, 0.02))
        assert p.assignment == [0] * 8 + [1] * 8

    def test_fm_seeded_reaches_path_optimum(self, path4):
        from reference import brute_force_bipartition
        oracle = brute_force_bipartition(path4, 0.1)
        assert oracle.best_cost == 1
        for seed in range(6):
            p = generate_candidate(path4, "fm-seeded", random.Random(seed),
                                   symmetric_window(path4, 0.1))
            assert partition_cost(path4, p) == oracle.best_cost
            assert max_imbalance(path4, p) <= 0.1

    def test_random_and_linear_respect_balance(self):
        rng = random.Random(37)
        for _ in range(40):
            h = random_hypergraph(rng, min_vertices=6, max_vertices=20)
            if h.num_vertices % 2:
                continue
            for method in ("random", "linear"):
                p = generate_candidate(h, method, rng, symmetric_window(h, 0.2))
                assert max_imbalance(h, p) <= 0.2 + 1e-9

    def test_both_parts_non_empty(self):
        rng = random.Random(43)
        for _ in range(40):
            h = random_hypergraph(rng, min_vertices=2, max_vertices=9,
                                  min_edges=1, max_edges=6)
            for method in ("random", "linear", "fm-seeded"):
                p = generate_candidate(h, method, rng, symmetric_window(h, 0.5))
                assert min(p.part_sizes()) >= 1

    def test_linear_repairs_an_empty_side(self):
        # The window is [5, 7] with target 6. Vertex 0 (weight 7)
        # overshoots the target, so linear filling leaves the start part
        # empty, and the repair moves vertex 0 over to it alone.
        h = Hypergraph(6, [[0, 1], [1, 2, 3], [3, 4, 5]],
                       vertex_weight=[7, 1, 1, 1, 1, 1])
        window = BalanceWindow.symmetric(12, 0.3)
        assert window == BalanceWindow(5, 7, 6)
        starts = set()
        for seed in range(4):
            p = generate_candidate(h, "linear", random.Random(seed), window)
            assert min(p.part_sizes()) >= 1
            assert window.violation(p.part_weight[0]) == 0
            assert p.assignment.count(p.assignment[0]) == 1
            starts.add(p.assignment[0])
        assert starts == {0, 1}

    def test_oversized_vertex_rejected(self):
        h = Hypergraph(3, [[0, 1, 2]], vertex_weight=[10, 1, 1])
        with pytest.raises(InfeasibleBalanceError):
            generate_candidate(h, "random", random.Random(0), symmetric_window(h, 0.02))

    def test_unknown_method(self, path4):
        with pytest.raises(ValueError):
            generate_candidate(path4, "spectral", random.Random(0),
                               symmetric_window(path4, 0.02))


class TestSelectBest:
    def test_single_candidate(self, path4):
        p = Partition.from_assignment(path4, 2, [0, 0, 1, 1])
        assert select_best([p], path4, symmetric_window(path4, 0.1)) is p

    def test_prefers_cheaper_balanced(self, path4):
        cheap = Partition.from_assignment(path4, 2, [0, 0, 1, 1])   # cost 1
        costly = Partition.from_assignment(path4, 2, [0, 1, 1, 0])  # cost 2
        assert select_best([costly, cheap], path4, symmetric_window(path4, 0.1)) is cheap

    def test_falls_back_to_least_unbalanced(self):
        h = Hypergraph(10, [[0, 1]])
        p30 = Partition.from_assignment(h, 2, [0] * 8 + [1] * 2)  # 0.6 off
        p12 = Partition.from_assignment(h, 2, [0] * 6 + [1] * 4)  # 0.2 off
        best = select_best([p30, p12], h, symmetric_window(h, 0.02))
        assert best is p12

    def test_tie_goes_to_earliest(self, path4):
        a = Partition.from_assignment(path4, 2, [0, 0, 1, 1])
        b = Partition.from_assignment(path4, 2, [1, 1, 0, 0])
        assert select_best([a, b], path4, symmetric_window(path4, 0.1)) is a

    def test_empty_list_rejected(self, path4):
        with pytest.raises(ValueError):
            select_best([], path4, symmetric_window(path4, 0.1))

    def test_never_beaten_by_balanced_candidate(self):
        rng = random.Random(59)
        for _ in range(30):
            h = random_hypergraph(rng, min_vertices=6, max_vertices=12)
            if h.num_vertices % 2:
                continue
            window = symmetric_window(h, 0.3)
            candidates = [
                generate_candidate(h, "random", rng, window=window)
                for _ in range(5)
            ]
            best = select_best(candidates, h, window=window)
            best_cost = partition_cost(h, best)
            for p in candidates:
                if window.violation(p.part_weight[0]) == 0:
                    assert best_cost <= partition_cost(h, p)

    def test_matches_selection_by_recount(self):
        # fm-seeded candidates carry the cost FM tracked; it must be the
        # exact cut cost, so selection equals selection by recount.
        rng = random.Random(67)
        checked = 0
        for trial in range(200):
            h = random_weighted_hypergraph(rng, max_weight=9)
            if h.num_vertices < 2:
                continue
            try:
                window = symmetric_window(h, rng.choice((0.02, 0.1, 0.3)))
            except InfeasibleBalanceError:
                continue   # the window holds no integer weight
            candidates = [generate_candidate(h, method, rng, window=window)
                          for method in ("random", "linear", "fm-seeded", "fm-seeded")]
            for p in candidates[2:]:
                assert p.cost == partition_cost(h, p), f"trial {trial}"
                checked += 1
            keys = [(0, partition_cost(h, p), i) if window.violation(p.part_weight[0]) == 0
                    else (1, window.violation(p.part_weight[0]), i)
                    for i, p in enumerate(candidates)]
            assert select_best(candidates, h, window=window) is candidates[min(keys)[2]]
        assert checked > 300
