"""FM pass behaviour and partition projection."""

import random

import pytest

from hypart import (BalanceWindow, Hypergraph, Matching, Partition,
                    contract, fm_pass, max_imbalance, partition_cost, project,
                    refine_bipartition)
from hypart.refine import _FmState

from conftest import random_hypergraph, symmetric_window
from reference import audit_before, naive_cost


def balanced_random_partition(h, rng, epsilon):
    """Greedy random bipartition that respects the weight window."""
    window = symmetric_window(h, epsilon)
    cap = (window.upper, h.total_vertex_weight - window.lower)
    order = list(range(h.num_vertices))
    rng.shuffle(order)
    assignment = [0] * h.num_vertices
    weights = [0, 0]
    for v in order:
        w = h.vertex_weight[v]
        feasible = [part for part in (0, 1) if weights[part] + w <= cap[part] + 1e-9]
        part = feasible[rng.randrange(len(feasible))] if feasible else 0
        assignment[v] = part
        weights[part] += w
    return Partition.from_assignment(h, 2, assignment)


class TestFmPass:
    def test_zero_cut_unchanged(self):
        h = Hypergraph(4, [[0, 1], [2, 3]])
        p = Partition.from_assignment(h, 2, [0, 0, 1, 1])
        before = list(p.assignment)
        _, delta = fm_pass(h, p, "fm-ee", symmetric_window(h, 0.1))
        assert delta == 0
        assert p.assignment == before

    def test_path_reaches_optimum_in_one_pass(self, path4):
        # Start from the alternating split of cost 3; one pass finds the
        # cost-1 split while ending balanced.
        p = Partition.from_assignment(path4, 2, [0, 1, 0, 1])
        assert partition_cost(path4, p) == 3
        _, delta = fm_pass(path4, p, "fm-ee", symmetric_window(path4, 0.1))
        assert partition_cost(path4, p) == 1
        assert delta == -2
        assert max_imbalance(path4, p) <= 0.1

    def test_bfm_with_empty_boundary(self):
        h = Hypergraph(4, [[0, 1], [2, 3]])
        p = Partition.from_assignment(h, 2, [0, 0, 1, 1])
        _, delta = fm_pass(h, p, "bfm", symmetric_window(h, 0.1))
        assert delta == 0
        assert p.assignment == [0, 0, 1, 1]

    def test_never_increases_cost_from_balanced_input(self):
        rng = random.Random(7)
        for _ in range(60):
            h = random_hypergraph(rng, min_vertices=6, size_weights=rng.random() < 0.5)
            p = balanced_random_partition(h, rng, 0.3)
            window = symmetric_window(h, 0.3)
            if window.violation(p.part_weight[0]) > 0:
                continue
            before = partition_cost(h, p)
            mode = "bfm" if rng.random() < 0.5 else "fm-ee"
            _, delta = fm_pass(h, p, mode, window)
            after = partition_cost(h, p)
            assert after <= before
            assert after - before == delta

    def test_preserves_balance(self):
        rng = random.Random(19)
        for _ in range(60):
            h = random_hypergraph(rng, min_vertices=6)
            p = balanced_random_partition(h, rng, 0.25)
            window = symmetric_window(h, 0.25)
            if window.violation(p.part_weight[0]) > 0:
                continue
            fm_pass(h, p, "fm-ee", window)
            assert window.violation(p.part_weight[0]) == 0.0

    def test_incremental_gains_match_recomputation(self, monkeypatch):
        monkeypatch.setattr(_FmState, "select", audit_before(_FmState.select))
        rng = random.Random(23)
        for _ in range(25):
            h = random_hypergraph(rng, min_vertices=5, size_weights=rng.random() < 0.5)
            p = balanced_random_partition(h, rng, 0.4)
            fm_pass(h, p, "fm-ee", symmetric_window(h, 0.4))

    def test_part_weight_consistency_after_pass(self):
        rng = random.Random(29)
        for _ in range(40):
            h = random_hypergraph(rng, min_vertices=5)
            p = balanced_random_partition(h, rng, 0.3)
            fm_pass(h, p, "bfm", symmetric_window(h, 0.3))
            q = Partition.from_assignment(h, 2, p.assignment)
            assert q.part_weight == p.part_weight

    def test_kway_partition_rejected(self, path4):
        p = Partition.from_assignment(path4, 2, [0, 0, 1, 1])
        p.k = 3
        p.part_weight.append(0)
        with pytest.raises(ValueError):
            fm_pass(path4, p, "bfm", symmetric_window(path4, 0.1))

    def test_repairs_unbalanced_input(self):
        # From a one-versus-rest seed the pass must walk toward balance.
        h = Hypergraph(8, [[i, i + 1] for i in range(7)])
        assignment = [0] * 8
        assignment[5] = 1
        p = Partition.from_assignment(h, 2, assignment)
        refine_bipartition(h, p, "fm-ee", symmetric_window(h, 0.1),
                           max_passes=10)
        assert max_imbalance(h, p) <= 0.1

    @pytest.mark.parametrize("max_passes", (0, -1))
    def test_refine_rejects_fewer_than_one_pass(self, path4, max_passes):
        # Without a pass there is no cut to return.
        p = Partition.from_assignment(path4, 2, [0, 1, 0, 1])
        with pytest.raises(ValueError):
            refine_bipartition(path4, p, "bfm", symmetric_window(path4, 0.1),
                               max_passes=max_passes)
        assert p.assignment == [0, 1, 0, 1]

    def test_unit_weights_reach_any_window_in_one_ee_pass(self, monkeypatch):
        # With unit vertex weights, while part 0 weighs more than
        # ``upper`` only moves off side 0 are admissible, and each lowers
        # the violation by exactly one, so every move is a new best state
        # and the early exit cannot fire first (the case below ``lower``
        # mirrors it). One fm-ee pass therefore ends inside any nonempty
        # integer window that leaves both sides a vertex, whatever the
        # start. The driver relies on this: when the finest level ends
        # outside its window it raises rather than repairs.
        # Every fifth pass is audited before each move selection.
        select = _FmState.select
        audited = audit_before(select)
        rng = random.Random(41)
        for case in range(1000):
            h = random_hypergraph(rng, min_vertices=2, max_vertices=40,
                                  min_edges=1, max_edges=60,
                                  size_weights=rng.random() < 0.5)
            n = h.num_vertices
            start = case % 3
            if start == 0:
                assignment = [rng.randrange(2) for _ in range(n)]
            elif start == 1:
                assignment = [0] * n
                assignment[rng.randrange(n)] = 1
                if rng.random() < 0.5:
                    assignment = [1 - a for a in assignment]
            else:
                assignment = [rng.randrange(2)] * n
            p = Partition.from_assignment(h, 2, assignment)
            lower = rng.randint(1, n - 1)
            upper = rng.randint(lower, n - 1)
            window = BalanceWindow(float(lower), float(upper),
                                   rng.uniform(lower, upper))
            monkeypatch.setattr(_FmState, "select", audited if case % 5 == 0 else select)
            fm_pass(h, p, "fm-ee", window)
            assert lower <= p.part_weight[0] <= upper, (case, lower, upper)
            assert p.part_weight == Partition.from_assignment(h, 2, p.assignment).part_weight


class TestProject:
    def test_identity_link(self, path4):
        link = contract(path4, Matching([None] * 4))
        p = Partition.from_assignment(link.coarse, 2, [0, 1, 0, 1])
        fine = project(p, link)
        assert fine.assignment == [0, 1, 0, 1]

    def test_mates_inherit_assignment(self, sample16):
        mate = [None] * 16
        mate[3], mate[7] = 7, 3
        mate[11], mate[15] = 15, 11
        link = contract(sample16, Matching(mate))
        coarse_assignment = [0] * link.coarse.num_vertices
        coarse_assignment[link.coarse_id[3]] = 1
        coarse_assignment[link.coarse_id[11]] = 1
        p = Partition.from_assignment(link.coarse, 2, coarse_assignment)
        fine = project(p, link)
        for v in (3, 7, 11, 15):
            assert fine.assignment[v] == 1

    def test_cost_preserved_on_sample16(self, sample16):
        mate = [None] * 16
        mate[3], mate[7] = 7, 3
        mate[11], mate[15] = 15, 11
        link = contract(sample16, Matching(mate))
        rng = random.Random(3)
        for _ in range(10):
            assignment = [rng.randrange(2) for _ in range(link.coarse.num_vertices)]
            p = Partition.from_assignment(link.coarse, 2, assignment)
            fine = project(p, link)
            assert partition_cost(sample16, fine) == partition_cost(link.coarse, p)
            assert partition_cost(sample16, fine) == naive_cost(sample16, fine.assignment)

    def test_size_mismatch_rejected(self, sample16):
        link = contract(sample16, Matching([None] * 16))
        bad = Partition.from_assignment(Hypergraph(3, []), 2, [0, 0, 1])
        with pytest.raises(ValueError):
            project(bad, link)
