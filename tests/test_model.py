"""Hypergraph model and metric tests."""

import random

import pytest

from hypart import (BalanceWindow, Hypergraph, InfeasibleBalanceError, Partition,
                    PartitionConfig, fm_pass, max_imbalance, partition_cost,
                    partition_kway, validate)
from hypart import model
from hypart.model import dense_tables, is_dense

from conftest import naive_connectivity, random_hypergraph, random_weighted_hypergraph
from reference import connectivity_degree, edge_size, naive_cost


class TestValidate:
    def test_sample16_is_clean(self, sample16):
        assert validate(sample16) == []

    def test_empty_hypergraph_is_clean(self):
        assert validate(Hypergraph(0, [])) == []

    def test_out_of_range_vertex_id(self):
        h = Hypergraph(4, [[0, 1], [2, 5]])
        problems = validate(h)
        assert any("out of range" in p for p in problems)

    def test_duplicate_pin(self):
        h = Hypergraph(3, [[0, 1, 1]])
        assert any("duplicate" in p for p in problems_of(h))

    def test_zero_weight(self):
        h = Hypergraph(2, [[0, 1]], vertex_weight=[0, 1])
        assert any("non-positive" in p for p in problems_of(h))

    def test_non_integer_weights(self):
        # A float hyperedge weight would reach clustering, whose weight
        # bound is an integer.
        h = Hypergraph(4, [[0, 1], [0, 1], [2, 3]], vertex_weight=[1, 2.0, 1, True],
                       hyperedge_weight=[1.5, 1.8, 10])
        assert problems_of(h) == [
            "vertex 1 has non-integer weight 2.0",
            "vertex 3 has non-integer weight True",
            "hyperedge 0 has non-integer weight 1.5",
            "hyperedge 1 has non-integer weight 1.8",
        ]
        with pytest.raises(ValueError, match="non-integer"):
            partition_kway(h, PartitionConfig(k=2))

    def test_transpose_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            h = random_hypergraph(rng)
            rebuilt = [[] for _ in range(h.num_vertices)]
            for e, pins in enumerate(h.pins_by_hyperedge):
                for v in pins:
                    rebuilt[v].append(e)
            assert rebuilt == h.pins_by_vertex


def problems_of(h):
    return validate(h)


class TestConnectivityDegree:
    def test_single_part(self, sample16):
        p = Partition.from_assignment(sample16, 2, [0] * 16)
        for e in range(16):
            assert connectivity_degree(sample16, p, e) == 1

    def test_split_edge(self, sample16):
        # Edge 15 covers vertices {3, 7, 11, 15}; split them two and two.
        assignment = [0] * 16
        for v in (11, 15):
            assignment[v] = 1
        p = Partition.from_assignment(sample16, 2, assignment)
        assert connectivity_degree(sample16, p, 15) == 2
        assert naive_connectivity(sample16, assignment, 15) == 2

    def test_edge_entirely_in_one_part(self, sample16):
        assignment = [0] * 16
        for v in (3, 7, 11, 15):
            assignment[v] = 1
        p = Partition.from_assignment(sample16, 2, assignment)
        assert connectivity_degree(sample16, p, 15) == 1

    def test_out_of_range_edge(self, sample16):
        p = Partition.from_assignment(sample16, 2, [0] * 16)
        with pytest.raises(IndexError):
            connectivity_degree(sample16, p, 16)

    def test_bounds_property(self):
        rng = random.Random(11)
        for _ in range(60):
            h = random_hypergraph(rng)
            k = rng.randint(2, 4)
            assignment = [rng.randrange(k) for _ in range(h.num_vertices)]
            p = Partition.from_assignment(h, k, assignment)
            for e in range(h.num_hyperedges):
                lam = connectivity_degree(h, p, e)
                assert 1 <= lam <= min(edge_size(h, e), k)


class TestPartitionCost:
    def test_single_part_costs_zero(self, sample16):
        p = Partition.from_assignment(sample16, 2, [0] * 16)
        assert partition_cost(sample16, p) == 0

    def test_sample16_known_split(self, sample16):
        # Parts {v4, v8, v12, v16} against the rest cut exactly the two
        # hyperedges that mix the groups (edges 1 and 2), each once.
        assignment = [0] * 16
        for v in (3, 7, 11, 15):
            assignment[v] = 1
        p = Partition.from_assignment(sample16, 2, assignment)
        assert partition_cost(sample16, p) == 2
        assert naive_cost(sample16, assignment) == 2

    def test_sample16_size_weights(self):
        h = make_sized_sample()
        assignment = [0] * 16
        for v in (3, 7, 11, 15):
            assignment[v] = 1
        p = Partition.from_assignment(h, 2, assignment)
        # The two cut hyperedges have three pins each.
        assert partition_cost(h, p) == 6

    def test_part_label_permutation_invariance(self):
        rng = random.Random(23)
        for _ in range(40):
            h = random_hypergraph(rng)
            k = rng.randint(2, 5)
            assignment = [rng.randrange(k) for _ in range(h.num_vertices)]
            p = Partition.from_assignment(h, k, assignment)
            perm = list(range(k))
            rng.shuffle(perm)
            relabeled = [perm[a] for a in assignment]
            q = Partition.from_assignment(h, k, relabeled)
            assert partition_cost(h, p) == partition_cost(h, q)

    def test_matches_naive_tally(self):
        rng = random.Random(31)
        for _ in range(60):
            h = random_hypergraph(rng, size_weights=rng.random() < 0.5)
            k = rng.randint(2, 4)
            assignment = [rng.randrange(k) for _ in range(h.num_vertices)]
            p = Partition.from_assignment(h, k, assignment)
            assert partition_cost(h, p) == naive_cost(h, assignment)


class TestMaxImbalance:
    def test_even_split(self, sample16):
        p = Partition.from_assignment(sample16, 2, [0] * 8 + [1] * 8)
        assert max_imbalance(sample16, p) == 0.0

    def test_twelve_four_split(self, sample16):
        p = Partition.from_assignment(sample16, 2, [0] * 12 + [1] * 4)
        assert max_imbalance(sample16, p) == pytest.approx(0.5)
        assert max_imbalance(sample16, p) > 0.02

    def test_even_split_meets_two_percent(self, sample16):
        p = Partition.from_assignment(sample16, 2, [0] * 8 + [1] * 8)
        assert max_imbalance(sample16, p) <= 0.02

    def test_part_weight_bookkeeping(self):
        rng = random.Random(5)
        for _ in range(40):
            h = random_hypergraph(rng)
            k = rng.randint(2, 4)
            assignment = [rng.randrange(k) for _ in range(h.num_vertices)]
            p = Partition.from_assignment(h, k, assignment)
            assert sum(p.part_weight) == h.total_vertex_weight
            expected = [0] * k
            for v, a in enumerate(assignment):
                expected[a] += h.vertex_weight[v]
            assert p.part_weight == expected


class TestBalanceWindow:
    def test_symmetric_has_integer_bounds(self):
        # avg * (1 +- eps) is [49.49, 51.51]; a part weighs an integer.
        assert BalanceWindow.symmetric(101, 0.02) == (50, 51, 50.5)

    def test_violation_is_exact(self):
        window = BalanceWindow.symmetric(101, 0.02)
        assert [window.violation(w) for w in (48, 49, 50, 51, 52)] == [2, 1, 0, 0, 1]

    def test_symmetric_raises_where_a_k2_run_cannot_split(self):
        outcomes = set()
        for total in range(2, 201):
            h = Hypergraph(2, [[0, 1]], vertex_weight=[total // 2, total - total // 2])
            for epsilon in (0.02, 0.1, 0.3):
                try:
                    BalanceWindow.symmetric(total, epsilon)
                    empty = False
                except InfeasibleBalanceError:
                    empty = True
                try:
                    partition_kway(h, PartitionConfig(k=2, epsilon=epsilon))
                    rejected = False
                except InfeasibleBalanceError as exc:
                    rejected = "cannot split into 2 parts" in str(exc)
                assert empty == rejected, (total, epsilon)
                outcomes.add(empty)
        assert outcomes == {False, True}


def rect_level(rng, hyperedge_weight=None):
    """A coarsest level shaped like rect-k2-r3's: 64 vertices, 3,500
    random 5-pin nets."""
    pins = [rng.sample(range(64), 5) for _ in range(3500)]
    return Hypergraph(64, pins, hyperedge_weight=hyperedge_weight)


class TestVertexIncidentWeights:
    def test_kept_on_the_hypergraph_and_equal_to_per_pin_sums(self):
        rng = random.Random(29)
        for _ in range(50):
            h = random_weighted_hypergraph(rng)
            weights = h.vertex_incident_weights()
            assert h.vertex_incident_weights() is weights
            expected = [sum(h.hyperedge_weight[e] for e in range(h.num_hyperedges)
                            for u in h.pins_by_hyperedge[e] if u == v)
                        for v in range(h.num_vertices)]
            assert weights == expected


class TestDenseTables:
    def test_rect_level_is_dense(self):
        h = rect_level(random.Random(3))
        tables = dense_tables(h)
        assert tables is not None
        assert dense_tables(h) is tables   # built once, kept on the level
        assert len(tables.weight_planes) == 1 and tables.count_bits == 3

    def test_band_level_is_not(self):
        # Nets of 2-8 rows near their column, as in the band workload.
        rng = random.Random(3)
        n = 2000
        pins = [rng.sample(range(max(0, c - 30), min(n, c + 30)), rng.randint(2, 8))
                for c in range(n)]
        h = Hypergraph(n, pins)
        assert not is_dense(h)
        assert dense_tables(h) is None

    def test_many_small_hyperedges_are_not(self):
        # Mean degree 300 >= n, but 45,000 bits per mask is 150 words per
        # pin: the tables would outgrow the pin lists.
        rng = random.Random(3)
        h = Hypergraph(300, [rng.sample(range(300), 2) for _ in range(45000)])
        assert h.num_pins() >= h.num_vertices ** 2
        assert dense_tables(h) is None

    def test_float_weights_stay_on_the_list_path(self):
        rng = random.Random(3)
        weights = [rng.choice((0.5, 1.0, 2.5)) for _ in range(3500)]
        h = rect_level(rng, hyperedge_weight=weights)
        assert is_dense(h)
        assert dense_tables(h) is None
        p = Partition.from_assignment(h, 2, [v % 2 for v in range(64)])
        before = partition_cost(h, p)
        _, delta = fm_pass(h, p, "fm-ee", BalanceWindow.symmetric(64, 0.1))
        assert partition_cost(h, p) == pytest.approx(before + delta)

    def test_tables_match_their_definitions(self, monkeypatch):
        monkeypatch.setattr(model, "is_dense", lambda h: True)
        rng = random.Random(37)
        for _ in range(100):
            h = random_hypergraph(rng, max_vertices=12, size_weights=rng.random() < 0.5)
            tables = dense_tables(h)
            for v, incident in enumerate(h.pins_by_vertex):
                assert tables.masks[v] == sum(1 << e for e in incident)
                near = {u for e in incident for u in h.pins_by_hyperedge[e]} - {v}
                assert tables.neighbours[v] == sorted(near)
                assert all(m and m == tables.masks[v] & tables.weight_planes[b]
                           for b, m in tables.vertex_planes[v])
            for e, w in enumerate(h.hyperedge_weight):
                assert tables.weight_of(1 << e) == w
            assignment = [rng.randrange(2) for _ in range(h.num_vertices)]
            p = Partition.from_assignment(h, 2, assignment)
            assert tables.cost(assignment) == partition_cost(h, p)

    def test_repeated_pin_has_no_tables(self, monkeypatch):
        monkeypatch.setattr(model, "is_dense", lambda h: True)
        assert dense_tables(Hypergraph(3, [[0, 1, 1], [1, 2]])) is None
        assert dense_tables(Hypergraph(3, [[0, 1], [1, 2]])) is not None


def make_sized_sample():
    from conftest import make_sample16
    return make_sample16(size_weights=True)
