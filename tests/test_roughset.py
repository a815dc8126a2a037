"""Hyperedge clustering and vertex core extraction."""

import math
import random

import pytest

from hypart import Hypergraph, build_edge_partitions, extract_cores
from hypart import roughset
from hypart.coarsen import THRESHOLD_CLAMP

from conftest import (SAMPLE16_CLUSTERS, SAMPLE16_CORES, SAMPLE16_NON_CORE,
                      SAMPLE16_SINGLETONS, random_hypergraph,
                      random_weighted_hypergraph)
from reference import (degree, hyperedge_similarity, info_value, numbered_reference,
                       reduced_value, reference_clusters, reference_cores)


class TestInfoValue:
    def test_sample16_vertex0(self, sample16):
        # Vertex 0 has three incident unit hyperedges.
        assert info_value(sample16, 0, 0) == pytest.approx(1 / 3)

    def test_sample16_vertex7(self, sample16):
        # Vertex 7 (five incident hyperedges) scores 0.2 at edge 1.
        assert info_value(sample16, 7, 1) == pytest.approx(0.2)

    def test_non_incident_is_zero(self, sample16):
        assert info_value(sample16, 0, 15) == 0.0

    def test_rows_sum_to_one(self):
        rng = random.Random(17)
        for _ in range(30):
            h = random_hypergraph(rng, size_weights=rng.random() < 0.5)
            for v in range(h.num_vertices):
                if degree(h, v) == 0:
                    continue
                total = sum(info_value(h, v, e) for e in range(h.num_hyperedges))
                assert math.isclose(total, 1.0, abs_tol=1e-9)


class TestHyperedgeSimilarity:
    def test_identical_pin_sets(self):
        h = Hypergraph(4, [[0, 1, 2], [0, 1, 2]])
        assert hyperedge_similarity(h, 0, 1) == pytest.approx(1.0)

    def test_sample16_two_thirds(self, sample16):
        # Edges 4 and 12 share two of three distinct vertices.
        assert hyperedge_similarity(sample16, 4, 12) == pytest.approx(2 / 3)

    def test_sample16_one_fifth(self, sample16):
        # Edges 0 and 4 share one of five distinct vertices, below 0.5.
        sim = hyperedge_similarity(sample16, 0, 4)
        assert sim == pytest.approx(0.2)
        assert sim < 0.5

    def test_symmetry(self):
        rng = random.Random(29)
        for _ in range(20):
            h = random_hypergraph(rng, size_weights=True)
            if h.num_hyperedges < 2:
                continue
            ei, ej = rng.sample(range(h.num_hyperedges), 2)
            assert hyperedge_similarity(h, ei, ej) == pytest.approx(
                hyperedge_similarity(h, ej, ei))

    def test_weight_scaling_factor(self):
        h = Hypergraph(3, [[0, 1], [0, 1], [1, 2]], hyperedge_weight=[2, 2, 4])
        # Identical pin sets but weights below the maximum scale down.
        assert hyperedge_similarity(h, 0, 1) == pytest.approx((2 + 2) / (2 * 4))

    def test_same_edge_rejected(self, sample16):
        with pytest.raises(ValueError):
            hyperedge_similarity(sample16, 3, 3)


class TestBuildEdgePartitions:
    def test_sample16_clusters(self, sample16):
        ep = build_edge_partitions(sample16, 0.5)
        got = {frozenset(c) for c in ep.clusters}
        assert got == set(SAMPLE16_CLUSTERS)

    def test_cluster_bookkeeping(self, sample16):
        ep = build_edge_partitions(sample16, 0.5)
        for c_id, members in enumerate(ep.clusters):
            assert members == sorted(members)
            for e in members:
                assert ep.cluster_of[e] == c_id

    def test_single_hyperedge(self):
        h = Hypergraph(3, [[0, 1, 2]])
        ep = build_edge_partitions(h, 0.5)
        assert ep.clusters == [[0]]

    def test_threshold_above_everything(self):
        # Chain edges pairwise overlap in one of three vertices (1/3), so
        # a 0.5 threshold leaves every cluster a singleton.
        h = Hypergraph(4, [[0, 1], [1, 2], [2, 3]])
        ep = build_edge_partitions(h, 0.5)
        assert ep.clusters == [[0], [1], [2]]

    def test_identical_edges_cluster_at_any_threshold(self, sample16):
        # The three identical hyperedges keep similarity 1 and stay
        # together even just below the threshold ceiling.
        ep = build_edge_partitions(sample16, 0.9)
        sizes = sorted(map(len, ep.clusters))
        assert sizes == [1] * 13 + [3]
        assert ep.cluster_of[3] == ep.cluster_of[11] == ep.cluster_of[15]

    def test_invalid_threshold(self, sample16):
        for s in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                build_edge_partitions(sample16, s)

    def test_visiting_order_invariance(self, sample16):
        # Relabel hyperedges; the clusters must map through the relabeling.
        rng = random.Random(41)
        ep = build_edge_partitions(sample16, 0.5)
        base = {frozenset(c) for c in ep.clusters}
        for _ in range(5):
            perm = list(range(16))
            rng.shuffle(perm)
            pins = [None] * 16
            for e, target in enumerate(perm):
                pins[target] = sample16.pins_by_hyperedge[e]
            shuffled = Hypergraph(16, pins)
            ep2 = build_edge_partitions(shuffled, 0.5)
            back = {frozenset(perm.index(e) for e in c) for c in ep2.clusters}
            # Map shuffled ids back to the original labels.
            inverse = [0] * 16
            for e, target in enumerate(perm):
                inverse[target] = e
            back = {frozenset(inverse[e] for e in c) for c in ep2.clusters}
            assert back == base


class TestReducedValue:
    def test_sample16_vertex0(self, sample16):
        ep = build_edge_partitions(sample16, 0.5)
        c_id = ep.cluster_of[0]   # the cluster holding edge 0
        assert reduced_value(sample16, ep, 0, c_id) == 3

    def test_sample16_vertex1(self, sample16):
        ep = build_edge_partitions(sample16, 0.5)
        c_id = ep.cluster_of[0]
        assert reduced_value(sample16, ep, 1, c_id) == 1

    def test_no_incidence_in_cluster(self, sample16):
        ep = build_edge_partitions(sample16, 0.5)
        c_id = ep.cluster_of[14]  # singleton cluster of edge 14
        assert reduced_value(sample16, ep, 0, c_id) == 0

    def test_sums_to_degree(self):
        rng = random.Random(53)
        for _ in range(20):
            h = random_hypergraph(rng)
            if h.num_hyperedges == 0:
                continue
            ep = build_edge_partitions(h, 0.3)
            for v in range(h.num_vertices):
                total = sum(reduced_value(h, ep, v, c)
                            for c in range(len(ep.clusters)))
                assert total == degree(h, v)


class TestExtractCores:
    """The paper's general rule, held by the oracle ``reference_cores``,
    on small cases. Cases whose assertions hold for the driver's rule
    check ``extract_cores`` too."""

    def test_sample16_cores(self, sample16):
        ep = build_edge_partitions(sample16, 0.5)
        cores = reference_cores(sample16, ep, 0.5)
        assert {frozenset(c) for c in cores.cores} == set(SAMPLE16_CORES)
        assert set(cores.singleton_cores) == SAMPLE16_SINGLETONS
        assert set(cores.non_core) == SAMPLE16_NON_CORE

    def test_unit_cluster_removal_keeps_sample16_cores(self, sample16):
        # Dropping the two single-hyperedge clusters before extraction
        # leaves every multi-vertex core unchanged.
        ep = build_edge_partitions(sample16, 0.5)
        cores = reference_cores(sample16, ep, 0.5, drop_unit_clusters=True)
        assert {frozenset(c) for c in cores.cores} == set(SAMPLE16_CORES)

    def test_even_split_at_full_threshold(self):
        # A vertex whose incidences split evenly across two clusters has
        # ratio 0.5 < 1 everywhere, hence an all-zero signature.
        h = Hypergraph(4, [[0, 1], [0, 1], [2, 3], [2, 3],
                           [0, 2], [0, 2]])
        ep = build_edge_partitions(h, 0.9)
        cores = reference_cores(h, ep, 1.0)
        assert 0 in cores.non_core

    def test_single_cluster_any_incidence(self):
        h = Hypergraph(5, [[0, 1], [1, 2], [2, 3]])
        ep = build_edge_partitions(h, 0.05)
        if len(ep.clusters) == 1:
            for cores in (reference_cores(h, ep, 0.0), extract_cores(h, ep)):
                assert {frozenset(c) for c in cores.cores} == {frozenset({0, 1, 2, 3})}
                assert cores.non_core == [4]

    def test_zero_degree_vertices_are_non_core(self):
        h = Hypergraph(3, [[0, 1]])
        ep = build_edge_partitions(h, 0.5)
        for cores in (reference_cores(h, ep, 0.5), extract_cores(h, ep)):
            assert 2 in cores.non_core

    def test_partition_of_vertex_set(self):
        rng = random.Random(61)
        for _ in range(20):
            h = random_hypergraph(rng)
            if h.num_hyperedges == 0:
                continue
            ep = build_edge_partitions(h, 0.4)
            for cores in (reference_cores(h, ep, 0.5), extract_cores(h, ep)):
                seen = []
                for core in cores.cores:
                    assert len(core) >= 2
                    seen.extend(core)
                seen.extend(cores.singleton_cores)
                seen.extend(cores.non_core)
                assert sorted(seen) == list(range(h.num_vertices))

    def test_invalid_threshold(self, sample16):
        ep = build_edge_partitions(sample16, 0.5)
        with pytest.raises(ValueError):
            reference_cores(sample16, ep, 1.5)
        with pytest.raises(ValueError):
            reference_cores(sample16, ep, -0.5)


def reference_signature(h, ep, v, c, drop_unit_clusters):
    """Clusters that ``v`` touches with a share of its degree of at least ``c``."""
    deg = degree(h, v)
    return frozenset(
        c_id for c_id, members in enumerate(ep.clusters)
        if not (drop_unit_clusters and len(members) < 2)
        and reduced_value(h, ep, v, c_id) > 0
        and reduced_value(h, ep, v, c_id) / deg >= c)


def dense_row_hypergraph(rng):
    """Random weighted hypergraph in which one vertex (a dense row of the
    matrix) sits in every hyperedge."""
    n = rng.randint(3, 24)
    hub = rng.randrange(n)
    pins = [sorted({hub} | set(rng.sample(range(n), rng.randint(1, min(5, n)))))
            for _ in range(rng.randint(1, 30))]
    return Hypergraph(n, pins, hyperedge_weight=[rng.randint(1, 3) for _ in pins])


def half_empty_hypergraph(rng):
    """Random weighted hypergraph in which every other vertex (an empty
    row of the matrix) is isolated."""
    n = 2 * rng.randint(2, 12)
    live = list(range(0, n, 2))
    pins = [sorted(rng.sample(live, rng.randint(1, min(5, len(live)))))
            for _ in range(rng.randint(1, 30))]
    return Hypergraph(n, pins, hyperedge_weight=[rng.randint(1, 3) for _ in pins])


def heavy_tailed_hypergraph(rng):
    """Random hypergraph whose hyperedge weights are their pin counts,
    except one outlier about 20 times heavier than the largest."""
    h = random_weighted_hypergraph(rng)
    weights = [len(pins) for pins in h.pins_by_hyperedge]
    weights[rng.randrange(len(weights))] = rng.randint(18, 22) * max(weights)
    return Hypergraph(h.num_vertices, h.pins_by_hyperedge, hyperedge_weight=weights)


def equal_weight_hypergraph(rng, smin, smax):
    """Random hypergraph whose hyperedges all weigh the same (1 or 3),
    with sizes in [smin, smax] (both taken), repeated pin sets and
    isolated vertices."""
    n = rng.randint(smax + 2, 24)
    isolated = set(rng.sample(range(n), rng.randint(0, n // 4)))
    live = [v for v in range(n) if v not in isolated]
    pins = [sorted(rng.sample(live, size)) for size in (smin, smax)]
    for _ in range(rng.randint(0, 38)):
        if rng.random() < 0.15:
            pins.append(list(rng.choice(pins)))
            continue
        pins.append(sorted(rng.sample(live, rng.randint(smin, smax))))
    rng.shuffle(pins)
    weight = rng.choice((1, 3))
    return Hypergraph(n, pins, hyperedge_weight=[weight] * len(pins))


def count_calls(monkeypatch, name):
    """Record the arguments of each call of ``roughset.<name>``: the bound
    search ``_least``, which only pruned walks and the pair path call
    (levels of unequal weights never take the pair path), or the
    equal-weight path ``_pair_clusters``."""
    calls = []
    original = getattr(roughset, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(roughset, name, counted)
    return calls


class TestClusteringOracle:
    # Thresholds include exact ratios so that similarities and shares
    # land on the boundary.
    SIMILARITIES = (0.05, 0.2, 1 / 3, 0.5, 2 / 3, 0.9)
    SHARES = (0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0)

    def test_clusters_are_similarity_components(self):
        rng = random.Random(71)
        for trial in range(300):
            h = random_weighted_hypergraph(rng)
            s = rng.choice(self.SIMILARITIES)
            ep = build_edge_partitions(h, s)
            assert {frozenset(c) for c in ep.clusters} == reference_clusters(h, s), \
                f"trial {trial}"
            for c_id, members in enumerate(ep.clusters):
                assert all(ep.cluster_of[e] == c_id for e in members)

    @pytest.mark.parametrize("s", SIMILARITIES)
    def test_heavy_tailed_weights(self, monkeypatch, s):
        # Light pairs fail on their weight factor alone, so the walk
        # stops early; the clusters must not change.
        calls = count_calls(monkeypatch, "_least")
        rng = random.Random(83)
        pruned = 0
        for trial in range(150):
            h = heavy_tailed_hypergraph(rng)
            calls.clear()
            ep = build_edge_partitions(h, s)
            assert {frozenset(c) for c in ep.clusters} == reference_clusters(h, s), \
                f"trial {trial}"
            pruned += bool(calls)
        assert pruned > 0.75 * 150

    @pytest.mark.parametrize("s, light, heavy, outlier", [
        (0.05, 1, 3, 40), (0.3, 2, 4, 10), (0.5, 4, 6, 10), (0.9, 8, 10, 10)])
    def test_weight_bound_tie(self, monkeypatch, s, light, heavy, outlier):
        # Two identical pin sets whose weight factor equals s exactly:
        # their similarity is s, so they must share a cluster, whichever
        # of them is expanded first. No other hyperedge touches them.
        assert (light + heavy) / (2.0 * outlier) == s
        calls = count_calls(monkeypatch, "_least")
        for weights in ([light, heavy, outlier, 1], [heavy, light, outlier, 1]):
            h = Hypergraph(7, [[0, 1, 2], [0, 1, 2], [3, 4, 5], [5, 6]],
                           hyperedge_weight=weights)
            calls.clear()
            ep = build_edge_partitions(h, s)
            assert calls
            assert ep.cluster_of[0] == ep.cluster_of[1]
            assert {frozenset(c) for c in ep.clusters} == reference_clusters(h, s)

    @pytest.mark.parametrize("s, smin, smax", [
        # fl(2 / (2 * 6 - 2)) = s: two shared pins of the largest sizes
        # reach s exactly; so does one pin of sizes 3 and 3, 2 and 4,
        # 1 and 5.
        (0.2, 1, 6),
        # fl(2 / (2 * 5 - 2)) = s with every size 5; one pin never joins.
        (0.25, 5, 5),
        # fl(1 / (3 + 3 - 1)) = s: one pin joins sizes 3 and 3 only.
        (0.2, 3, 4),
        (1 / 3, 2, 4),
    ])
    def test_equal_weights_pair_path(self, monkeypatch, s, smin, smax):
        # Equal weights make the weight factor exactly 1.0, so these
        # levels are clustered by union-find over shared pins; clusters
        # and their numbering must be the walk's.
        calls = count_calls(monkeypatch, "_pair_clusters")
        rng = random.Random(89)
        for trial in range(150):
            h = equal_weight_hypergraph(rng, smin, smax)
            ep = build_edge_partitions(h, s)
            cluster_of, clusters = numbered_reference(h, s)
            assert ep.clusters == clusters, f"trial {trial}"
            assert ep.cluster_of == cluster_of, f"trial {trial}"
        assert len(calls) == 150

    def test_equal_weights_off_the_pair_path(self, monkeypatch):
        # Two pins of the largest hyperedges fall short of s, or one pin
        # of the largest and the smallest already reaches it (down to the
        # smallest s, whose inverse overflows): the walk clusters these
        # levels.
        calls = count_calls(monkeypatch, "_pair_clusters")
        rng = random.Random(97)
        for s, smin, smax in ((0.25, 1, 6), (0.2, 3, 3), (0.5, 1, 1), (5e-324, 1, 6)):
            for trial in range(50):
                h = equal_weight_hypergraph(rng, smin, smax)
                ep = build_edge_partitions(h, s)
                assert (ep.cluster_of, ep.clusters) == numbered_reference(h, s), \
                    f"s={s} trial {trial}"
        assert calls == []

    @pytest.mark.parametrize("generator", [dense_row_hypergraph, half_empty_hypergraph],
                             ids=["dense-row", "half-empty"])
    @pytest.mark.parametrize("s", [0.05, 0.9])
    def test_skewed_degrees(self, generator, s):
        # At 0.05 most draws form one giant cluster, so later expansions
        # meet vertices with no open hyperedge left; at 0.9 nearly every
        # cluster is a single hyperedge.
        rng = random.Random(79)
        giant = 0
        for trial in range(150):
            h = generator(rng)
            ep = build_edge_partitions(h, s)
            assert {frozenset(c) for c in ep.clusters} == reference_clusters(h, s), \
                f"trial {trial}"
            giant += h.num_hyperedges > 2 and len(ep.clusters) == 1
        assert (giant > 0) == (s < 0.5)

    def test_cores_group_reference_signatures(self):
        # The oracle's general rule, at a random threshold with and
        # without unit clusters, groups the per-vertex signatures; the
        # driver's rule returns the oracle's lists at threshold 0 with
        # unit clusters dropped, in the same order.
        rng = random.Random(73)
        isolated = unit_only = no_multi = 0
        for trial in range(300):
            h = random_weighted_hypergraph(rng)
            s = rng.choice(self.SIMILARITIES)
            ep = build_edge_partitions(h, s)
            assert extract_cores(h, ep) == reference_cores(h, ep, 0.0, True), \
                f"trial {trial}"
            unit = [len(ep.clusters[ep.cluster_of[e]]) == 1
                    for e in range(h.num_hyperedges)]
            isolated += any(degree(h, v) == 0 for v in range(h.num_vertices))
            unit_only += s == 0.9 and any(
                incident and all(unit[e] for e in incident)
                for incident in h.pins_by_vertex)
            no_multi += all(unit)
            c = rng.choice(self.SHARES)
            drop = rng.random() < 0.5
            cores = reference_cores(h, ep, c, drop_unit_clusters=drop)
            groups = {}
            non_core = set()
            for v in range(h.num_vertices):
                sig = (reference_signature(h, ep, v, c, drop)
                       if degree(h, v) else frozenset())
                if sig:
                    groups.setdefault(sig, set()).add(v)
                else:
                    non_core.add(v)
            assert {frozenset(core) for core in cores.cores} == \
                {frozenset(g) for g in groups.values() if len(g) >= 2}, f"trial {trial}"
            assert set(cores.singleton_cores) == \
                {v for g in groups.values() if len(g) == 1 for v in g}, f"trial {trial}"
            assert set(cores.non_core) == non_core, f"trial {trial}"
        # The draws reach isolated vertices, vertices that see only unit
        # clusters at s = 0.9, and levels without a multi-hyperedge cluster.
        assert isolated and unit_only and no_multi, (isolated, unit_only, no_multi)


def with_neighbours(values):
    """``values`` and the floats one ulp either side of each, inside (0, 1)."""
    ties = set()
    for x in values:
        ties.update((math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)))
    return [s for s in ties if 0.0 < s < 1.0]


def scan_least(holds, thresholds):
    """Least ``t >= 1`` with ``holds(s, t)`` for each ``s`` of
    ``thresholds``, by one linear scan over ``t``. The thresholds must
    come in an order along which the answer never falls, so ``t`` never
    has to go back."""
    t = 1
    for s in thresholds:
        while not holds(s, t):
            t += 1
        yield s, t


def weight_need(s, max_w):
    """The pruned walk's bound: least weight sum whose factor reaches ``s``."""
    scale_den = 2.0 * max_w
    return roughset._least(lambda t: t / scale_den >= s, math.ceil(s * scale_den))


def longest_join(s):
    """The pair path's bound: largest union size ``k`` with ``fl(1 / k) >= s``."""
    return roughset._least(lambda k: 1 / k < s, int(1 / s)) - 1


class TestLeast:
    """The bound search at float ties, against a linear scan of the
    expression the similarity evaluates."""

    def test_weight_bound_matches_scan(self):
        too_high = too_low = 0
        for max_w in range(1, 201):
            scale_den = 2.0 * max_w
            ratios = [t / scale_den for t in range(1, 2 * max_w)]
            thresholds = sorted(with_neighbours(THRESHOLD_CLAMP + tuple(ratios)))
            for s, need in scan_least(lambda s, t: t / scale_den >= s, thresholds):
                assert weight_need(s, max_w) == need, f"s={s!r} max_w={max_w}"
                estimate = math.ceil(s * scale_den)
                too_high += estimate > need
                too_low += estimate < need
        # Both correction loops of the search run.
        assert too_high and too_low

    def test_pair_bound_matches_scan(self):
        # The least k with fl(1 / k) < s falls as s grows, so scan from
        # the top.
        ratios = [1 / k for k in range(2, 401)]
        thresholds = sorted(with_neighbours(THRESHOLD_CLAMP + tuple(ratios)), reverse=True)
        for s, least in scan_least(lambda s, k: 1 / k < s, thresholds):
            assert longest_join(s) == least - 1, f"s={s!r}"

    def test_estimate_one_too_high(self):
        # fl(0.55 * 100) = 55.00000000000001, but fl(55 / 100) = 0.55.
        assert math.ceil(0.55 * 100.0) == 56
        assert weight_need(0.55, 50) == 55

    def test_estimate_one_too_low(self):
        # fl(s * 6) rounds down to 2.0, but fl(2 / 6) = 1/3 < s.
        s = math.nextafter(1 / 3, 1.0)
        assert math.ceil(s * 6.0) == 2
        assert weight_need(s, 3) == 3

    def test_inverse_rounds_onto_the_tie(self):
        # fl(1 / s) = 9.0, but fl(1 / 9) < s: one pin of a 9-pin union
        # falls short.
        s = math.nextafter(1 / 9, 1.0)
        assert int(1 / s) == 9
        assert longest_join(s) == 8
