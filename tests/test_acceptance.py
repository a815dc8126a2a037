"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion lines. Criterion 6 generates a synthetic sparse matrix at the
scale of a mid-sized public benchmark (tens of thousands of rows), with
the ``band`` generator of ``perfbench/workloads.py``, and runs the full
command line pipeline under a wall-clock budget.
"""

import json
import math
import random
import time

import pytest

from hypart import (Hypergraph, PartitionConfig, PHASE_KEYS, Partition,
                    bipartition, build_edge_partitions, contract,
                    extract_cores, fm_pass, initial_threshold,
                    match_in_cores, match_noncore, max_imbalance,
                    partition_cost, partition_kway, project,
                    update_threshold, BalanceWindow)
from hypart.cli import main as cli_main
from hypart.model import InfeasibleBalanceError

from conftest import (SAMPLE16_CLUSTERS, SAMPLE16_CORES, SAMPLE16_NON_CORE,
                      SAMPLE16_PINS, SAMPLE16_SINGLETONS, load_workloads,
                      make_sample16, random_hypergraph)
from reference import (brute_force_bipartition, cc_oracle_hypergraph,
                       info_value, reference_cc, reference_cc_edge,
                       reference_cores, reference_threshold_seed)


def report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


# Printed two-decimal incidence value of each vertex row in the
# reference example (every nonzero cell of a row shares one value since
# all hyperedge weights are 1).
SAMPLE16_ROW_VALUES = {
    0: 0.33, 1: 0.25, 2: 0.33, 3: 0.16, 4: 0.33, 5: 0.33, 6: 0.33, 7: 0.2,
    8: 0.25, 9: 0.33, 10: 0.5, 11: 0.33, 12: 0.5, 13: 1.0, 14: 1.0, 15: 0.25,
}


def truncate2(x):
    return math.floor(x * 100 + 1e-9) / 100


def banded_hypergraph(n, seed, band=8, degrees=(2, 3, 3, 4, 5)):
    """Unit-weight hypergraph with mostly local hyperedges; has the
    overlap structure multilevel coarsening thrives on."""
    rng = random.Random(seed)
    pins = []
    for j in range(n):
        lo, hi = max(0, j - band), min(n - 1, j + band)
        d = min(rng.choice(degrees), hi - lo + 1)
        members = set(rng.sample(range(lo, hi + 1), d))
        members.add(j)
        if len(members) < 2:
            members.add((j + 1) % n)
        pins.append(sorted(members))
    return Hypergraph(n, pins)


class TestCriterion1WorkedExample:
    def test_worked_example_fidelity(self):
        h = make_sample16()
        started = time.perf_counter()

        # (a) the full 16 x 16 incidence-value table, zeros included,
        # matches the known two-decimal values in every cell.
        checked = nonzero = 0
        for v in range(16):
            incident = set(h.pins_by_vertex[v])
            for e in range(16):
                value = info_value(h, v, e)
                checked += 1
                if e in incident:
                    nonzero += 1
                    assert abs(truncate2(value) - SAMPLE16_ROW_VALUES[v]) < 1e-9, \
                        f"cell ({v}, {e})"
                else:
                    assert value == 0.0, f"cell ({v}, {e})"
        assert checked == 256
        assert nonzero == sum(len(p) for p in SAMPLE16_PINS)

        # (b) the six similarity clusters at threshold 0.5, as sets.
        ep = build_edge_partitions(h, 0.5)
        assert {frozenset(c) for c in ep.clusters} == set(SAMPLE16_CLUSTERS)

        # (c) the core decomposition at clustering threshold 0.5.
        cores = reference_cores(h, ep, 0.5)
        assert {frozenset(c) for c in cores.cores} == set(SAMPLE16_CORES)
        assert set(cores.singleton_cores) == SAMPLE16_SINGLETONS
        assert set(cores.non_core) == SAMPLE16_NON_CORE

        # (d) removing the unit-size clusters before extraction leaves
        # every multi-vertex core unchanged.
        unit_clusters = [c for c in ep.clusters if len(c) == 1]
        assert len(unit_clusters) == 2
        filtered = reference_cores(h, ep, 0.5, drop_unit_clusters=True)
        assert {frozenset(c) for c in filtered.cores} == set(SAMPLE16_CORES)

        # The driver's rule is the general one at threshold 0 with the
        # unit clusters dropped, lists and order included.
        assert extract_cores(h, ep) == reference_cores(h, ep, 0.0, True)

        assert time.perf_counter() - started < 1.0
        report(1, "worked-example fidelity")


class TestCriterion2OracleQuality:
    def test_oracle_dominance_and_quality(self):
        # Sizes 7 and 9 admit no balanced split of unit vertices at the
        # ten percent tolerance and are skipped.
        sizes = [6, 8, 10, 11, 12, 13, 14]
        epsilon = 0.1
        rng = random.Random(987654)
        instances = 0
        ratios = []
        while instances < 200:
            n = rng.choice(sizes)
            m = rng.randint(6, 18)
            pins = []
            for _ in range(m):
                size = rng.randint(2, min(5, n))
                pins.append(sorted(rng.sample(range(n), size)))
            size_weights = rng.random() < 0.5
            weights = [len(p) for p in pins] if size_weights else None
            h = Hypergraph(n, pins, hyperedge_weight=weights)
            oracle = brute_force_bipartition(h, epsilon)
            instances += 1
            costs = []
            for seed in range(3):
                cfg = PartitionConfig(k=2, epsilon=epsilon, seed=seed)
                p, _ = bipartition(h, cfg)
                cost = partition_cost(h, p)
                assert max_imbalance(h, p) <= epsilon + 1e-9
                assert cost >= oracle.best_cost, \
                    f"heuristic beat the exhaustive optimum on n={n}, m={m}"
                costs.append(cost)
            if oracle.best_cost > 0:
                ratios.append((sum(costs) / len(costs)) / oracle.best_cost)
        mean_ratio = sum(ratios) / len(ratios)
        assert mean_ratio <= 1.5, f"mean heuristic/optimal ratio {mean_ratio:.3f}"
        report(2, f"oracle dominance over {instances} instances, "
                  f"mean ratio {mean_ratio:.3f}")


class TestCriterion3BalanceGuarantee:
    def test_balance_always_met(self):
        epsilon = 0.02
        inputs = [
            ("sample16", make_sample16(), (2, 4, 8, 16)),
            ("banded640", banded_hypergraph(640, seed=1), (2, 4, 8, 16, 32)),
            ("banded1024", banded_hypergraph(1024, seed=2), (2, 4, 8, 16, 32)),
        ]
        for name, h, ks in inputs:
            for k in ks:
                p, stats = partition_kway(h, PartitionConfig(k=k, epsilon=epsilon, seed=3))
                imbalance = max_imbalance(h, p)
                assert imbalance <= epsilon + 1e-9, \
                    f"{name} at k={k}: imbalance {imbalance:.4f}"
                assert min(p.part_sizes()) >= 1
        report(3, "balance guarantee at two percent for k up to 32")


class TestCriterion4StructuralInvariants:
    def test_fuzzed_invariants(self):
        rng = random.Random(20260808)
        instances = 0
        determinism_checks = 0
        while instances < 1000:
            h = random_hypergraph(rng, min_vertices=4, max_vertices=16,
                                  min_edges=3, max_edges=20,
                                  size_weights=rng.random() < 0.4)
            instances += 1
            s = rng.uniform(0.1, 0.8)
            c = rng.uniform(0.0, 1.0)
            ep = build_edge_partitions(h, s)
            cores = reference_cores(h, ep, c, drop_unit_clusters=rng.random() < 0.5)
            mate, leftovers = match_in_cores(h, cores, rng)
            m = match_noncore(h, mate, leftovers, rng)

            # Matching involution and coarse id consistency.
            for v, mv in enumerate(m.mate):
                if mv is not None:
                    assert mv != v and m.mate[mv] == v
                    assert m.coarse_id[v] == m.coarse_id[mv]

            # Per-level compression ratio stays within pair-matching bounds.
            ratio = h.num_vertices / m.num_coarse
            assert 1.0 <= ratio <= 2.0

            # Vertex weight conservation under contraction.
            link = contract(h, m)
            assert sum(link.coarse.vertex_weight) == sum(h.vertex_weight)

            # Cut preservation through projection.
            coarse = link.coarse
            assignment = [rng.randrange(2) for _ in range(coarse.num_vertices)]
            pc = Partition.from_assignment(coarse, 2, assignment)
            fine = project(pc, link)
            assert partition_cost(h, fine) == partition_cost(coarse, pc)

            # FM cost monotonicity from a balanced start.
            window = BalanceWindow.symmetric(h.total_vertex_weight, 0.3)
            p = _greedy_balanced(h, rng, window)
            if window.violation(p.part_weight[0]) == 0:
                before = partition_cost(h, p)
                mode = "bfm" if rng.random() < 0.5 else "fm-ee"
                _, delta = fm_pass(h, p, mode, window)
                after = partition_cost(h, p)
                assert after <= before and after - before == delta

            # Determinism: identical seed gives identical output.
            if instances % 20 == 0 and h.num_vertices >= 4:
                try:
                    cfg = PartitionConfig(k=2, epsilon=0.3, seed=instances)
                    p1, _ = bipartition(h, cfg)
                    p2, _ = bipartition(h, cfg)
                except InfeasibleBalanceError:
                    continue
                assert p1.assignment == p2.assignment
                determinism_checks += 1
        assert instances >= 1000
        assert determinism_checks >= 40
        report(4, f"structural invariants over {instances} fuzzed instances")


def _greedy_balanced(h, rng, window):
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


class TestCriterion5ThresholdBehaviour:
    def test_threshold_behaviour(self):
        # Unit hyperedges and isolated hyperedges score zero; the seed is
        # the mean over all hyperedges, here (0 + 1 + 0) / 3.
        h = Hypergraph(4, [[0], [0, 1], [2, 3]])
        assert reference_cc_edge(h, 0) == 0.0
        assert reference_cc_edge(h, 2) == 0.0   # shares no vertex with the rest
        assert initial_threshold(h) == pytest.approx(1 / 3)

        # The seed is the clustering coefficient of its definition,
        # clamped, and uniform hyperedge weight scaling leaves it
        # unchanged. Most draws lie strictly inside the clamp, so the
        # clamp cannot hide the formula.
        rng = random.Random(5)
        draws = 100
        inside = 0
        for _ in range(draws):
            g = cc_oracle_hypergraph(rng)
            scaled = Hypergraph(g.num_vertices, g.pins_by_hyperedge,
                                hyperedge_weight=[w * 13 for w in g.hyperedge_weight])
            assert abs(initial_threshold(g) - reference_threshold_seed(g)) <= 1e-12
            assert abs(initial_threshold(scaled) - initial_threshold(g)) <= 1e-12
            assert abs(reference_cc(scaled) - reference_cc(g)) <= 1e-9
            inside += 0.05 < reference_cc(g) < 0.95
        assert inside >= 0.8 * draws

        # Threshold updates: identity without degree change, clamps at
        # the ends of the working range.
        assert update_threshold(0.4, 3.0, 3.0) == pytest.approx(0.4)
        assert update_threshold(0.9, 2.0, 1.0) == pytest.approx(0.95)
        assert update_threshold(0.06, 1.0, 5.0) == pytest.approx(0.05)
        report(5, "threshold behaviour")


class TestCriterion6DeskScaleSmoke:
    def test_smoke_run_under_budget(self, tmp_path):
        n = 24000
        path = tmp_path / "synthetic.mtx"
        workloads = load_workloads()
        workloads.write_mtx(str(path), *workloads.band(20260808, n))

        out = tmp_path / "synthetic.part"
        stats_path = tmp_path / "synthetic.stats.json"
        started = time.perf_counter()
        code = cli_main(["--input", str(path), "--k", "32",
                         "--epsilon", "0.02", "--seed", "1", "--runs", "1",
                         "--quiet", "--out", str(out), "--stats", str(stats_path)])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 60.0, f"smoke run took {elapsed:.1f}s"

        document = json.loads(stats_path.read_text())
        for key in PHASE_KEYS:
            assert key in document, f"missing phase key {key}"
            assert document[key] >= 0.0
        assert document["overall"] >= max(document[k] for k in PHASE_KEYS[1:])
        assert document["cost"] > 0
        assert document["imbalance"] <= 0.02 + 1e-9

        lines = out.read_text().splitlines()
        assert len(lines) == n
        assert {int(x) for x in lines} == set(range(32))
        report(6, f"desk-scale smoke run in {elapsed:.1f}s")
