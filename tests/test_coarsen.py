"""Matching, contraction and clustering-coefficient tests."""

import random

import pytest

from hypart import (Hypergraph, Matching, Partition, ThresholdState,
                    build_edge_partitions, cc_edge, cc_hypergraph, contract,
                    extract_cores, initial_threshold, match_in_cores,
                    match_noncore, update_threshold)
from hypart.roughset import CoreDecomposition

from conftest import (FixedOrderRng, make_path4, naive_cost, random_hypergraph,
                      random_weighted_hypergraph)
from reference import degree, edge_size, weighted_jaccard


class TestWeightedJaccard:
    def test_disjoint_incidence(self):
        h = Hypergraph(4, [[0, 1], [2, 3]])
        assert weighted_jaccard(h, 0, 2) == 0.0

    def test_sample16_half(self, sample16):
        # Vertices 0 and 9 share two of four incident hyperedges.
        assert weighted_jaccard(sample16, 0, 9) == pytest.approx(0.5)

    def test_sample16_five_sixths(self, sample16):
        # Vertex 7's incidence is contained in vertex 3's except one edge.
        assert weighted_jaccard(sample16, 3, 7) == pytest.approx(5 / 6)

    def test_symmetry(self):
        rng = random.Random(71)
        for _ in range(30):
            h = random_hypergraph(rng, size_weights=True)
            u, v = rng.sample(range(h.num_vertices), 2)
            assert weighted_jaccard(h, u, v) == pytest.approx(weighted_jaccard(h, v, u))

    def test_isolated_pair(self):
        h = Hypergraph(3, [[1, 2]], hyperedge_weight=[5])
        # Vertex 0 is isolated; pair it with another isolated one.
        h2 = Hypergraph(3, [])
        assert weighted_jaccard(h2, 0, 1) == 0.0

    def test_identical_incidence(self):
        h = Hypergraph(4, [[0, 1], [0, 1, 2], [0, 1, 3]],
                       hyperedge_weight=[3, 1, 2])
        assert weighted_jaccard(h, 0, 1) == pytest.approx(1.0)


def cores_of(h, s=0.5, c=0.5):
    return extract_cores(h, build_edge_partitions(h, s), c)


class TestMatchInCores:
    def test_pair_core_always_matches(self):
        decomposition = CoreDecomposition(cores=[[1, 3]], singleton_cores=[],
                                          non_core=[0, 2])
        h = Hypergraph(4, [[1, 3], [0, 2]])
        for seed in range(5):
            mate, leftovers = match_in_cores(h, decomposition, random.Random(seed))
            assert mate[1] == 3 and mate[3] == 1
            assert leftovers == [0, 2]

    def test_sample16_heavy_core(self, sample16):
        # In the four-vertex core {3, 7, 11, 15}, vertex 3's most
        # similar member is 7 (5/6, against 1/2 for 11 and 2/3 for 15).
        # Picking 3 first therefore pairs {3, 7} and leaves {11, 15}.
        assert weighted_jaccard(sample16, 3, 7) == pytest.approx(5 / 6)
        assert weighted_jaccard(sample16, 3, 11) == pytest.approx(0.5)
        assert weighted_jaccard(sample16, 3, 15) == pytest.approx(2 / 3)
        cores = cores_of(sample16)
        mate, _ = match_in_cores(sample16, cores, FixedOrderRng())
        assert mate[3] == 7 and mate[7] == 3
        assert mate[11] == 15 and mate[15] == 11

    def test_pairs_stay_inside_cores(self, sample16):
        cores = cores_of(sample16)
        membership = {}
        for i, core in enumerate(cores.cores):
            for v in core:
                membership[v] = i
        for seed in range(8):
            mate, _ = match_in_cores(sample16, cores, random.Random(seed))
            for v, mv in enumerate(mate):
                if mv is not None:
                    assert membership[v] == membership[mv]

    def test_everything_non_core(self):
        h = make_path4()
        decomposition = CoreDecomposition(cores=[], singleton_cores=[],
                                          non_core=list(range(4)))
        mate, leftovers = match_in_cores(h, decomposition, random.Random(0))
        assert all(x is None for x in mate)
        assert leftovers == [0, 1, 2, 3]

    def test_leftovers_cover_unmatched(self, sample16):
        cores = cores_of(sample16)
        mate, leftovers = match_in_cores(sample16, cores, random.Random(2))
        unmatched = {v for v in range(16) if mate[v] is None}
        assert set(leftovers) == unmatched


class TestMatchNoncore:
    def test_empty_pool(self, sample16):
        m2 = match_noncore(sample16, [None] * 16, [], random.Random(0))
        assert m2.mate == [None] * 16

    def test_early_stop_when_ratio_reached(self):
        # Eight vertices, six already matched: ratio 8/5 = 1.6 >= 1.5.
        mate = [1, 0, 3, 2, 5, 4, None, None]
        h = Hypergraph(8, [[6, 7]])
        m2 = match_noncore(h, mate, [6, 7], random.Random(0))
        assert m2.mate[6] is None and m2.mate[7] is None

    def test_path_matching(self):
        h = make_path4()
        m2 = match_noncore(h, [None] * 4, [0, 1, 2, 3], FixedOrderRng())
        # Visiting 0 first pairs it with 1 (the only positive-similarity
        # neighbour beats the rest), then 2 pairs with 3.
        assert m2.mate == [1, 0, 3, 2]
        assert 4 / m2.num_coarse == 2.0

    def test_pool_vertex_pairs_outside_pool(self):
        # Any unmatched vertex is a candidate mate, not only pool members.
        h = make_path4()
        m2 = match_noncore(h, [None] * 4, [0], random.Random(0))
        assert m2.mate == [1, 0, None, None]

    def test_unmatched_vertex_without_neighbours(self):
        h = Hypergraph(3, [[0, 1]])
        m2 = match_noncore(h, [None] * 3, [0, 1, 2], random.Random(1))
        assert m2.mate[2] is None

    def test_involution_fuzz(self):
        rng = random.Random(83)
        for _ in range(40):
            h = random_hypergraph(rng)
            if h.num_hyperedges == 0:
                continue
            cores = cores_of(h, s=0.3, c=0.3)
            mate, leftovers = match_in_cores(h, cores, rng)
            m = match_noncore(h, mate, leftovers, rng)
            for v, mv in enumerate(m.mate):
                if mv is not None:
                    assert mv != v
                    assert m.mate[mv] == v
                    assert m.coarse_id[mv] == m.coarse_id[v]
            pairs = sum(1 for mv in m.mate if mv is not None) // 2
            assert m.num_coarse == h.num_vertices - pairs
            ratio = h.num_vertices / m.num_coarse
            assert 1.0 <= ratio <= 2.0


def reference_matching(h, cores, rng, min_ratio=1.5):
    """Scalar reference for ``match_in_cores`` followed by ``match_noncore``.

    A vertex's best mate is the free vertex with the highest
    ``weighted_jaccard`` above zero, ties going to the lowest id; inside
    a core a vertex with no such mate takes the lowest free member. The
    random draws are the same as the fast path's, in the same order.
    """
    n = h.num_vertices
    mate = [None] * n

    def best_mate(u, free):
        best, best_j = None, 0.0
        for x in sorted(free):
            j = weighted_jaccard(h, u, x)
            if j > best_j:
                best, best_j = x, j
        return best

    leftovers = []
    for core in cores.cores:
        unmatched = sorted(core)
        while len(unmatched) >= 2:
            u = unmatched.pop(rng.randrange(len(unmatched)))
            v = best_mate(u, unmatched)
            if v is None:
                v = min(unmatched)
            mate[u], mate[v] = v, u
            unmatched.remove(v)
        leftovers.extend(unmatched)
    pool = sorted(leftovers + cores.singleton_cores + cores.non_core)

    pairs = sum(1 for x in mate if x is not None) // 2
    if n >= min_ratio * (n - pairs) or not pool:
        return mate
    order = list(pool)
    rng.shuffle(order)
    for u in order:
        if mate[u] is not None:
            continue
        v = best_mate(u, [x for x in range(n) if x != u and mate[x] is None])
        if v is None:
            continue
        mate[u], mate[v] = v, u
        pairs += 1
        if n >= min_ratio * (n - pairs):
            break
    return mate


def random_core_decomposition(n, rng):
    """Vertices split at random into cores, singletons and non-core."""
    order = list(range(n))
    rng.shuffle(order)
    cores, singletons, non_core = [], [], []
    i = 0
    while i < n:
        size = rng.randint(1, 5)
        group = order[i:i + size]
        i += size
        if len(group) >= 2 and rng.random() < 0.7:
            cores.append(sorted(group))
        elif rng.random() < 0.5:
            singletons.extend(group)
        else:
            non_core.extend(group)
    return CoreDecomposition(cores, singletons, non_core)


class TestMatchingOracle:
    def test_matches_reference_matcher(self):
        rng = random.Random(97)
        for trial in range(300):
            h = random_weighted_hypergraph(rng)
            if trial % 2:
                cores = random_core_decomposition(h.num_vertices, rng)
            else:
                cores = cores_of(h, s=rng.choice((0.2, 1 / 3, 0.5)),
                                 c=rng.choice((0.0, 1 / 3, 0.5)))
            seed = rng.randrange(10 ** 6)
            fast_rng = random.Random(seed)
            mate, leftovers = match_in_cores(h, cores, fast_rng)
            m = match_noncore(h, mate, leftovers, fast_rng)
            expected = reference_matching(h, cores, random.Random(seed))
            assert m.mate == expected, f"trial {trial}"

    def test_single_core_holding_every_vertex(self):
        # Coarse levels of some inputs form one core over the whole
        # level, so core matching walks one long unmatched list.
        rng = random.Random(5)
        n = 401
        h = Hypergraph(n, [rng.sample(range(n), 4) for _ in range(300)])
        cores = CoreDecomposition([list(range(n))], [], [])
        fast_rng = random.Random(8)
        mate, leftovers = match_in_cores(h, cores, fast_rng)
        m = match_noncore(h, mate, leftovers, fast_rng)
        expected = reference_matching(h, cores, random.Random(8))
        assert m.mate == expected


class TestContract:
    def test_identity_contraction(self):
        h = Hypergraph(4, [[0, 1], [1, 2], [2, 3]])
        link = contract(h, Matching([None] * 4))
        assert link.coarse.num_vertices == 4
        assert link.coarse.pins_by_hyperedge == h.pins_by_hyperedge

    def test_sample16_contraction(self, sample16):
        # Mate 3 with 7 and 11 with 15: the four identical-image
        # hyperedges over those vertices fuse into one of weight 4 and
        # nothing shrinks to a single pin.
        mate = [None] * 16
        mate[3], mate[7] = 7, 3
        mate[11], mate[15] = 15, 11
        link = contract(sample16, Matching(mate))
        assert link.coarse.num_vertices == 14
        assert link.coarse.num_hyperedges == 13
        assert max(link.coarse.hyperedge_weight) == 4
        assert sum(link.coarse.vertex_weight) == 16

    def test_identical_hyperedges_fuse(self):
        h = Hypergraph(3, [[0, 1, 2], [0, 1, 2]], hyperedge_weight=[2, 5])
        link = contract(h, Matching([None, None, None]))
        assert link.coarse.num_hyperedges == 1
        assert link.coarse.hyperedge_weight == [7]

    def test_unit_edges_dropped(self):
        h = Hypergraph(4, [[0, 1], [2, 3], [0, 2]])
        mate = [1, 0, 3, 2]
        link = contract(h, Matching(mate))
        assert link.coarse.num_hyperedges == 1
        assert link.coarse.pins_by_hyperedge == [[0, 1]]

    def test_weight_conservation_fuzz(self):
        rng = random.Random(97)
        for _ in range(60):
            h = random_hypergraph(rng, size_weights=rng.random() < 0.5)
            m = random_matching(h, rng)
            link = contract(h, m)
            assert sum(link.coarse.vertex_weight) == sum(h.vertex_weight)

    def test_cut_preservation_fuzz(self):
        from hypart import partition_cost, project
        rng = random.Random(101)
        for _ in range(60):
            h = random_hypergraph(rng, size_weights=rng.random() < 0.5)
            link = contract(h, random_matching(h, rng))
            coarse = link.coarse
            assignment = [rng.randrange(2) for _ in range(coarse.num_vertices)]
            pc = Partition.from_assignment(coarse, 2, assignment)
            fine = project(pc, link)
            assert partition_cost(h, fine) == partition_cost(coarse, pc)
            assert partition_cost(h, fine) == naive_cost(h, fine.assignment)


def random_matching(h, rng):
    mate = [None] * h.num_vertices
    order = list(range(h.num_vertices))
    rng.shuffle(order)
    for u in order:
        if mate[u] is not None or rng.random() < 0.3:
            continue
        candidates = [v for v in order if v != u and mate[v] is None]
        if candidates:
            v = rng.choice(candidates)
            mate[u], mate[v] = v, u
    return Matching(mate)


def reference_cc_edge(h, e):
    """The clustering coefficient of hyperedge ``e`` by its definition:
    the overlap-weighted sum over the other hyperedges that share a pin
    with ``e``, over their total weight counted once per shared pin."""
    pins = h.pins_by_hyperedge[e]
    size = len(pins)
    if size <= 1:
        return 0.0
    weights = h.hyperedge_weight
    overlap = {}
    denom = 0
    for v in pins:
        for e2 in h.pins_by_vertex[v]:
            if e2 == e:
                continue
            overlap[e2] = overlap.get(e2, 0) + 1
            denom += weights[e2]
    if denom == 0:
        return 0.0
    numer = sum((cnt / (size - 1)) * weights[e2] for e2, cnt in overlap.items())
    return numer / denom


def cc_oracle_hypergraph(rng):
    """Random weighted hypergraph for the CC oracle: unit-size and
    isolated hyperedges are common, and some draws add a dense row (one
    vertex in every hyperedge of size two or more)."""
    n = rng.randint(2, 16)
    pins = []
    for _ in range(rng.randint(1, 14)):
        if rng.random() < 0.15:
            pins.append([rng.randrange(n)])
        else:
            pins.append(sorted(rng.sample(range(n), rng.randint(2, min(6, n)))))
    if rng.random() < 0.3:
        hub = rng.randrange(n)
        pins = [sorted(set(p) | {hub}) if len(p) > 1 else p for p in pins]
    if rng.random() < 0.3:
        # A hyperedge on fresh vertices shares no pin with any other.
        pins.append([n, n + 1, n + 2][:rng.randint(1, 3)])
        n += 3
    weights = [rng.randint(1, 9) for _ in pins]
    return Hypergraph(n, pins, hyperedge_weight=weights)


class TestClusteringCoefficient:
    def test_matches_reference_walk(self):
        rng = random.Random(131)
        isolated = unit = dense = 0
        for _ in range(500):
            h = cc_oracle_hypergraph(rng)
            want = [reference_cc_edge(h, e) for e in range(h.num_hyperedges)]
            for e, ref in enumerate(want):
                assert abs(cc_edge(h, e) - ref) <= 1e-12
                size = edge_size(h, e)
                unit += size == 1
                isolated += size > 1 and ref == 0.0
            assert abs(cc_hypergraph(h) - sum(want) / len(want)) <= 1e-12
            dense += any(degree(h, v) == h.num_hyperedges > 3 for v in range(h.num_vertices))
        assert isolated and unit and dense

    def test_unit_hyperedge_is_zero(self):
        h = Hypergraph(3, [[0], [0, 1], [1, 2]])
        assert cc_edge(h, 0) == 0.0

    def test_isolated_hyperedge_is_zero(self):
        h = Hypergraph(3, [[0, 1, 2]])
        assert cc_edge(h, 0) == 0.0

    def test_two_overlapping_edges(self):
        h = Hypergraph(3, [[0, 1], [1, 2]])
        assert cc_edge(h, 0) == pytest.approx(1.0)
        assert cc_hypergraph(h) == pytest.approx(1.0)

    def test_all_unit_edges(self):
        h = Hypergraph(3, [[0], [1], [2]])
        assert cc_hypergraph(h) == 0.0

    def test_disjoint_copies_keep_mean(self):
        h1 = Hypergraph(3, [[0, 1], [1, 2]])
        doubled = Hypergraph(6, [[0, 1], [1, 2], [3, 4], [4, 5]])
        assert cc_hypergraph(doubled) == pytest.approx(cc_hypergraph(h1))

    def test_uniform_weight_scaling_invariance(self):
        rng = random.Random(113)
        for _ in range(20):
            h = random_hypergraph(rng)
            if h.num_hyperedges == 0:
                continue
            scaled = Hypergraph(h.num_vertices, h.pins_by_hyperedge,
                                hyperedge_weight=[w * 7 for w in h.hyperedge_weight])
            for e in range(h.num_hyperedges):
                assert abs(cc_edge(h, e) - cc_edge(scaled, e)) <= 1e-9

    def test_closed_form_identity(self):
        # The overlap-weighted sum and its normaliser differ only by the
        # factor 1 / (|e| - 1), so the walk reduces to that closed form.
        rng = random.Random(127)
        for _ in range(300):
            n = rng.randint(1, 14)
            pins = [sorted(rng.sample(range(n), rng.randint(1, min(5, n))))
                    for _ in range(rng.randint(1, 12))]
            weights = [rng.randint(1, 9) for _ in pins]
            h = Hypergraph(n, pins, hyperedge_weight=weights)
            for e, edge in enumerate(pins):
                shares = any(e2 != e for v in edge for e2 in h.pins_by_vertex[v])
                got = cc_edge(h, e)
                if len(edge) <= 1 or not shares:
                    assert got == 0.0
                else:
                    want = 1.0 / (len(edge) - 1)
                    assert abs(got - want) <= 1e-12 * want

    def test_no_hyperedges_is_an_error(self):
        with pytest.raises(ValueError):
            cc_hypergraph(Hypergraph(3, []))


class TestThresholdUpdates:
    def test_identity_when_degree_unchanged(self):
        ts = ThresholdState(0.4, 3.0)
        assert update_threshold(ts, 3.0).s == pytest.approx(0.4)

    def test_inverse_degree_rule(self):
        ts = ThresholdState(0.4, 3.0)
        assert update_threshold(ts, 6.0).s == pytest.approx(0.2)

    def test_clamped_high(self):
        ts = ThresholdState(0.9, 2.0)
        assert update_threshold(ts, 1.0).s == pytest.approx(0.95)

    def test_clamped_low(self):
        ts = ThresholdState(0.06, 1.0)
        assert update_threshold(ts, 5.0).s == pytest.approx(0.05)

    def test_non_positive_degree_rejected(self):
        ts = ThresholdState(0.4, 3.0)
        with pytest.raises(ValueError):
            update_threshold(ts, 0.0)

    def test_initial_threshold_clamps(self):
        h = Hypergraph(3, [[0], [1], [2]])   # CC is 0, clamps to 0.05
        assert initial_threshold(h).s == pytest.approx(0.05)
