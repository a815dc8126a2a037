"""V-cycle, recursive bisection and run summaries."""

import math
import random

import pytest

from hypart import (Hypergraph, InfeasibleBalanceError, PartitionConfig,
                    PHASE_KEYS, bipartition, induce_subhypergraph,
                    max_imbalance, partition_cost, partition_kway, run_many)
from hypart.driver import _part_interval, std_dev_percent

from conftest import make_path4, naive_cost, random_hypergraph
from reference import brute_force_bipartition
from test_golden import banded_hypergraph


def grid_hypergraph(rows, cols):
    """Unit-weight hypergraph over a grid: one hyperedge per row pair and
    column pair, which gives multilevel structure at modest size."""
    n = rows * cols
    pins = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pins.append([v, v + 1])
            if r + 1 < rows:
                pins.append([v, v + cols])
    return Hypergraph(n, pins)


class TestBipartition:
    def test_small_instance_skips_coarsening(self, path4):
        cfg = PartitionConfig(epsilon=0.1, seed=3)
        p, info = bipartition(make_path4(), cfg)
        assert info["levels"] == 0
        assert partition_cost(path4, p) == 1

    def test_path_reaches_oracle_optimum(self, path4):
        oracle = brute_force_bipartition(path4, 0.1)
        for seed in range(6):
            p, _ = bipartition(make_path4(), PartitionConfig(epsilon=0.1, seed=seed))
            assert partition_cost(path4, p) == oracle.best_cost

    def test_sample16_quality_bound(self, sample16):
        oracle = brute_force_bipartition(sample16, 0.25)
        for seed in range(6):
            p, _ = bipartition(sample16, PartitionConfig(epsilon=0.25, seed=seed))
            cost = partition_cost(sample16, p)
            assert cost >= oracle.best_cost
            assert cost <= 4
            assert max_imbalance(sample16, p) <= 0.25

    def test_coarsening_engages_on_larger_input(self):
        h = grid_hypergraph(16, 16)
        cfg = PartitionConfig(epsilon=0.05, seed=1)
        p, info = bipartition(h, cfg)
        assert info["levels"] >= 1
        assert all(1.0 <= r <= 2.0 for r in info["r"])
        assert all(0.05 <= s <= 0.95 for s in info["s"])
        assert max_imbalance(h, p) <= 0.05

    def test_checks_input_like_partition_kway(self):
        # bipartition is the k=2 case of partition_kway, so it rejects
        # what partition_kway rejects, whatever k the config names.
        with pytest.raises(ValueError, match="exceeds the number of vertices"):
            bipartition(Hypergraph(1, []), PartitionConfig(epsilon=0.1))
        with pytest.raises(ValueError, match="invalid hypergraph"):
            bipartition(Hypergraph(3, [[0, 3]]), PartitionConfig(k=4, epsilon=0.1))


class TestPartitionKway:
    def test_k2_matches_bipartition(self, sample16):
        cfg = PartitionConfig(k=2, epsilon=0.25, seed=5)
        p_direct, _ = bipartition(sample16, cfg)
        p_kway, _ = partition_kway(sample16, cfg)
        assert partition_cost(sample16, p_kway) == partition_cost(sample16, p_direct)

    def test_k4_on_16_units(self, sample16):
        p, _ = partition_kway(sample16, PartitionConfig(k=4, epsilon=0.02, seed=1))
        assert sorted(p.part_weight) == [4, 4, 4, 4]

    def test_k3_ratio_split(self):
        h = Hypergraph(12, [[i, (i + 1) % 12] for i in range(12)])
        p, _ = partition_kway(h, PartitionConfig(k=3, epsilon=0.02, seed=1))
        assert sorted(p.part_weight) == [4, 4, 4]

    def test_all_parts_non_empty(self):
        rng = random.Random(11)
        for _ in range(10):
            h = random_hypergraph(rng, min_vertices=12, max_vertices=24,
                                  min_edges=10, max_edges=30)
            k = rng.choice([2, 3, 4])
            try:
                p, _ = partition_kway(h, PartitionConfig(k=k, epsilon=0.3, seed=7))
            except Exception:
                continue
            assert min(p.part_sizes()) >= 1
            assert max_imbalance(h, p) <= 0.3 + 1e-9

    @pytest.mark.xfail(strict=True, raises=InfeasibleBalanceError,
                       reason="ROADMAP item 8: FM's single moves cannot reach a "
                              "window that only a swap reaches")
    def test_weighted_window_reached_only_by_a_swap(self):
        # A [17, 17] split of cut 1 exists, but the V-cycle ends at
        # [16, 18] or [18, 16] on most seeds (seed 2 succeeds): no single
        # move from there lands in the window [17, 17].
        h = Hypergraph(7, [[2, 4, 5, 6]], vertex_weight=[5, 8, 8, 5, 1, 5, 2])
        oracle = brute_force_bipartition(h, 0.05)
        assert oracle.best_cost == 1
        assert oracle.partition.part_weight == [17, 17]
        p, _ = partition_kway(h, PartitionConfig(k=2, epsilon=0.05, seed=1))
        assert p.part_weight == [17, 17]

    def test_k_larger_than_n_rejected(self, path4):
        with pytest.raises(ValueError):
            partition_kway(path4, PartitionConfig(k=8))

    def test_k1_rejected(self, path4):
        with pytest.raises(ValueError):
            partition_kway(path4, PartitionConfig(k=1))

    def test_determinism(self):
        h = grid_hypergraph(12, 12)
        cfg = PartitionConfig(k=4, epsilon=0.05, seed=42)
        p1, s1 = partition_kway(h, cfg)
        p2, s2 = partition_kway(h, cfg)
        assert p1.assignment == p2.assignment
        assert s1.cost == s2.cost

    def test_recursion_cost_identity(self):
        # Restricted hyperedges drop when only one pin stays in a part
        # and identical restrictions fuse with summed weights, so the
        # local bisection costs over the recursion tree add up exactly
        # to the global connectivity-minus-one cost.
        h = grid_hypergraph(10, 10)
        p, stats = partition_kway(h, PartitionConfig(k=8, epsilon=0.05, seed=3))
        assert stats.cost == naive_cost(h, p.assignment)
        assert sum(b["cost"] for b in stats.bisections) == stats.cost

    def test_monotone_vcycle(self, monkeypatch):
        # At every uncoarsening level the refined cost never exceeds the
        # projected cost when the projected partition is balanced.
        import hypart.driver as drv
        from hypart import partition_cost as cost_of

        records = []
        original_project = drv.project
        original_refine = drv._refine_level

        def recording_project(p_coarse, link):
            p = original_project(p_coarse, link)
            records.append(["projected", cost_of(link.fine, p)])
            return p

        def recording_refine(h, p, window, level_pos):
            balanced_before = window.violation(p.part_weight[0]) == 0
            original_refine(h, p, window, level_pos)
            if records and records[-1][0] == "projected" and balanced_before:
                records[-1] = ["pair", records[-1][1], cost_of(h, p)]

        monkeypatch.setattr(drv, "project", recording_project)
        monkeypatch.setattr(drv, "_refine_level", recording_refine)
        h = grid_hypergraph(16, 16)
        drv.bipartition(h, PartitionConfig(epsilon=0.05, seed=2))
        pairs = [r for r in records if r[0] == "pair"]
        assert pairs, "expected at least one projected level"
        for _, projected, refined in pairs:
            assert refined <= projected

    def test_stats_structure(self):
        h = grid_hypergraph(10, 10)
        p, stats = partition_kway(h, PartitionConfig(k=4, epsilon=0.05, seed=3))
        assert set(stats.phases) == set(PHASE_KEYS)
        assert all(t >= 0.0 for t in stats.phases.values())
        for key in PHASE_KEYS[1:]:
            assert stats.phases["overall"] >= stats.phases[key] - 1e-9
        assert stats.cost == partition_cost(h, p)
        assert stats.imbalance == max_imbalance(h, p)
        assert len(stats.bisections) == 3   # k=4 needs three bisections
        assert stats.seed == 3

    def test_bisection_record_names_its_coarsest_level(self):
        # A dense input at most COARSEST_SIZE vertices large is its own
        # coarsest level, and its FM takes the bit-parallel gain update.
        rng = random.Random(5)
        h = Hypergraph(64, [rng.sample(range(64), 5) for _ in range(3500)])
        _, record = bipartition(h, PartitionConfig(epsilon=0.05, seed=1))
        assert record["levels"] == 0
        assert record["coarsest"] == {"vertices": 64, "hyperedges": 3500, "pins": 17500}
        assert record["dense_fm"] == 1
        assert record["fallback"] is False
        _, record = bipartition(grid_hypergraph(16, 16), PartitionConfig(epsilon=0.05, seed=2))
        assert record["levels"] > 0 and record["dense_fm"] == 0
        assert record["coarsest"]["vertices"] <= 100

    def test_bisection_record_counts_multi_hyperedge_clusters(self, monkeypatch):
        # One count per coarsening level: the clusters of two or more
        # hyperedges, the ones that give signature bits.
        import hypart.driver as drv

        counts = []
        original = drv.build_edge_partitions

        def counting(h, s):
            ep = original(h, s)
            counts.append(sum(len(members) > 1 for members in ep.clusters))
            return ep

        monkeypatch.setattr(drv, "build_edge_partitions", counting)
        rng = random.Random(7)
        h = Hypergraph(300, [rng.sample(range(300), 5) for _ in range(1500)])
        _, record = bipartition(h, PartitionConfig(epsilon=0.05, seed=2))
        assert record["levels"] > 0
        assert record["clusters"] == counts[:record["levels"]]
        assert any(record["clusters"])


def reference_quota_interval(k, avg_part, epsilon):
    """Integer weight interval of a quota of k parts, by its recursive
    definition: a quota splits into ceil(k/2) and floor(k/2) parts and
    sums their intervals, down to the one-part interval."""
    if k == 1:
        return (math.ceil(avg_part * (1.0 - epsilon) - 1e-9),
                math.floor(avg_part * (1.0 + epsilon) + 1e-9))
    lo1, hi1 = reference_quota_interval((k + 1) // 2, avg_part, epsilon)
    lo2, hi2 = reference_quota_interval(k // 2, avg_part, epsilon)
    return lo1 + lo2, hi1 + hi2


class TestQuotaInterval:
    def test_k_copies_of_one_part_match_the_recursion(self):
        rng = random.Random(61)
        empty = 0
        for trial in range(400):
            if trial % 4 == 0:
                # Integer and half-integer averages sit on the rounding edge.
                avg = rng.randint(1, 200) / rng.choice((1, 2))
            else:
                avg = rng.uniform(0.5, 500.0)
            epsilon = rng.choice((0.01, 0.02, 0.05, rng.uniform(0.001, 0.999)))
            lo, hi = _part_interval(avg, epsilon)
            empty += lo > hi
            for k in range(1, 65):
                assert (k * lo, k * hi) == reference_quota_interval(k, avg, epsilon), \
                    (avg, epsilon, k)
        assert empty > 0, "no case had an empty one-part interval"

    def test_total_outside_k_parts_is_infeasible(self):
        # Parts must weigh between ceil(3.27) = 4 and floor(3.4) = 3.
        path10 = Hypergraph(10, [[i, i + 1] for i in range(9)])
        with pytest.raises(InfeasibleBalanceError,
                           match="total weight 10 cannot split into 3 parts"):
            partition_kway(path10, PartitionConfig(k=3, epsilon=0.02))


class TestInduceSubhypergraph:
    def test_restriction_drops_short_edges(self, sample16):
        from hypart import Partition
        assignment = [0] * 16
        for v in (3, 7, 11, 15):
            assignment[v] = 1
        p = Partition.from_assignment(sample16, 2, assignment)
        sub, back = induce_subhypergraph(sample16, p, 1)
        assert back == [3, 7, 11, 15]
        assert sub.num_vertices == 4
        # In-part restrictions of the three identical hyperedges plus the
        # two shorter ones fuse and survive only when two or more pins stay.
        for pins in sub.pins_by_hyperedge:
            assert len(pins) >= 2

    def test_total_weight_split(self):
        rng = random.Random(31)
        for _ in range(15):
            h = random_hypergraph(rng, min_vertices=8, max_vertices=16)
            from hypart import Partition
            assignment = [rng.randrange(2) for _ in range(h.num_vertices)]
            p = Partition.from_assignment(h, 2, assignment)
            sub0, _ = induce_subhypergraph(h, p, 0)
            sub1, _ = induce_subhypergraph(h, p, 1)
            assert (sub0.total_vertex_weight + sub1.total_vertex_weight
                    == h.total_vertex_weight)

    @pytest.mark.parametrize("k,inductions", [(2, 0), (3, 1), (4, 2), (8, 6)])
    def test_only_sides_that_split_again_are_induced(self, monkeypatch, k, inductions):
        # A side whose quota is one part keeps the id its bisection wrote,
        # so k = 2 induces nothing and k = 8 induces only the root's two
        # halves and their four quarters.
        import hypart.driver as drv
        calls = []
        original = drv.induce_subhypergraph

        def counting_induce(h, p, part):
            calls.append(part)
            return original(h, p, part)

        monkeypatch.setattr(drv, "induce_subhypergraph", counting_induce)
        h = banded_hypergraph(seed=13, rows=400, band=20, max_pins=5, size_weights=False)
        p, stats = partition_kway(h, PartitionConfig(k=k, epsilon=0.03, seed=1))
        assert len(calls) == inductions
        assert sorted(set(p.assignment)) == list(range(k))
        if k == 2:
            assert stats.phases["recursion"] == 0.0


class TestRunMany:
    def test_single_run(self, sample16):
        cfg = PartitionConfig(k=2, epsilon=0.25, seed=9, runs=1)
        summary = run_many(sample16, cfg)
        assert summary["best_cost"] == summary["mean_cost"]
        assert summary["std_dev_percent"] == 0.0
        assert len(summary["runs"]) == 1

    def test_seeds_advance(self, sample16):
        cfg = PartitionConfig(k=2, epsilon=0.25, seed=4, runs=3)
        summary = run_many(sample16, cfg)
        assert [s.seed for s in summary["runs"]] == [4, 5, 6]

    def test_summary_arithmetic(self):
        h = grid_hypergraph(8, 8)
        cfg = PartitionConfig(k=2, epsilon=0.05, seed=1, runs=4)
        summary = run_many(h, cfg)
        costs = [s.cost for s in summary["runs"]]
        assert summary["best_cost"] == min(costs)
        assert summary["mean_cost"] == pytest.approx(sum(costs) / len(costs))
        assert summary["std_dev_percent"] == pytest.approx(std_dev_percent(costs))

    def test_std_dev_percent_convention(self):
        # Population standard deviation as a percentage of the mean.
        assert std_dev_percent([10, 14]) == pytest.approx(100 * 2 / 12)
        assert std_dev_percent([5]) == 0.0
        assert std_dev_percent([7, 7, 7]) == 0.0

    def test_summary_statistics_match_statistics_module(self, monkeypatch):
        # The summary's mean and spread equal statistics.fmean and
        # statistics.pstdev, which the program no longer imports. Each
        # run's cost is planted through a stub of the single-run function,
        # so the summary arithmetic of run_many itself is checked.
        import statistics

        import hypart.driver as drv

        rng = random.Random(12)
        for _ in range(200):
            costs = [rng.randint(0, rng.choice([3, 100, 10 ** 6]))
                     for _ in range(rng.randint(1, 12))]
            base = rng.randint(0, 50)

            def planted(shared, cfg):
                stats = drv.RunStats(phases={}, cost=costs[cfg.seed - base],
                                     imbalance=0.0, bisections=[], seed=cfg.seed)
                return None, stats

            monkeypatch.setattr(drv, "_partition_run", planted)
            summary = run_many(make_path4(), PartitionConfig(seed=base, runs=len(costs)))
            monkeypatch.undo()
            mean = statistics.fmean(costs)
            assert summary["mean_cost"] == pytest.approx(mean, rel=1e-12, abs=0)
            expected = (statistics.pstdev(costs) / mean * 100.0
                        if len(costs) > 1 and mean else 0.0)
            assert summary["std_dev_percent"] == pytest.approx(expected, rel=1e-12, abs=0)
            assert std_dev_percent(costs) == summary["std_dev_percent"]


class TestSharedInputLevel:
    # The input's validation and its first level's threshold state,
    # clusters and cores do not depend on the seed, so run_many does them
    # once however many runs it makes.
    CONFIGS = [
        PartitionConfig(k=4, epsilon=0.05, seed=3, runs=3),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["auto"])
    def test_input_work_done_once(self, monkeypatch, cfg):
        import hypart.driver as drv

        h = grid_hypergraph(16, 16)
        calls = {}

        def counting(name):
            original = getattr(drv, name)

            def wrapper(*args, **kwargs):
                if args[0] is h:
                    calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("validate", "initial_threshold", "build_edge_partitions",
                     "extract_cores"):
            monkeypatch.setattr(drv, name, counting(name))
        summary = run_many(h, cfg)
        assert len(summary["runs"]) == 3
        assert calls == {"validate": 1, "initial_threshold": 1,
                         "build_edge_partitions": 1, "extract_cores": 1}

    def test_repeated_calls_share_the_input_work(self, monkeypatch):
        # The work is kept on the hypergraph object, so repeated calls
        # share it too, but an equal hypergraph built anew does it again.
        import hypart.driver as drv

        pins = grid_hypergraph(16, 16).pins_by_hyperedge
        h, again = Hypergraph(256, pins), Hypergraph(256, pins)
        names = ("validate", "initial_threshold", "build_edge_partitions",
                 "extract_cores")
        calls = {name: [0, 0] for name in names}

        def counting(name):
            original = getattr(drv, name)

            def wrapper(*args, **kwargs):
                if args[0] is h or args[0] is again:
                    calls[name][args[0] is again] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(drv, name, counting(name))
        cfg = PartitionConfig(k=4, epsilon=0.05, seed=3)
        p1, s1 = partition_kway(h, cfg)
        p2, s2 = partition_kway(h, cfg)
        assert calls == {name: [1, 0] for name in names}
        assert p1.assignment == p2.assignment
        assert s1.bisections == s2.bisections

        p3, s3 = partition_kway(again, cfg)
        assert calls == {name: [1, 1] for name in names}
        assert p3.assignment == p1.assignment
        assert s3.bisections == s1.bisections

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["auto"])
    def test_runs_match_single_seed_runs(self, monkeypatch, cfg):
        import hypart.driver as drv

        h = grid_hypergraph(16, 16)
        # Each run checks the balance of its final k-way partition once;
        # that call exposes the assignment of every run, not only the best.
        finals = []
        original = drv.max_imbalance

        def recording(graph, p):
            if graph is h:
                finals.append(list(p.assignment))
            return original(graph, p)

        monkeypatch.setattr(drv, "max_imbalance", recording)
        summary = run_many(h, cfg)
        monkeypatch.undo()
        assert len(finals) == cfg.runs
        for i, stats in enumerate(summary["runs"]):
            p, single = partition_kway(h, cfg._replace(seed=cfg.seed + i, runs=1))
            assert finals[i] == p.assignment
            assert stats.cost == single.cost
            assert stats.seed == single.seed
            assert stats.bisections == single.bisections
        for stats in summary["runs"]:
            for key in PHASE_KEYS[1:]:
                assert stats.phases["overall"] >= stats.phases[key] - 1e-9
