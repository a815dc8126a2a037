"""Differential tests of hyperedge fusion against a scalar reference.

Contraction and sub-hypergraph induction both derive a new hypergraph
from an old one and a vertex map: each hyperedge maps its pins, loses
the pins of dropped vertices, is dropped itself when fewer than two
distinct pins remain, and fuses with an earlier hyperedge of the same
pin set by adding its weight. The reference below does that one
hyperedge at a time, finding earlier equal pin sets by a linear scan.
"""

import random

from hypart import (Hypergraph, Matching, Partition, contract,
                    induce_subhypergraph, validate)

from conftest import random_weighted_hypergraph


def reference_derive(h, vertex_map, num_vertices):
    """``(vertex_weight, pins, weights)`` of the derived hypergraph;
    ``vertex_map[v] == -1`` drops vertex ``v``."""
    vertex_weight = [0] * num_vertices
    for v in range(h.num_vertices):
        if vertex_map[v] != -1:
            vertex_weight[vertex_map[v]] += h.vertex_weight[v]
    pins_out = []
    weights_out = []
    for e in range(h.num_hyperedges):
        mapped = []
        for v in h.pins_by_hyperedge[e]:
            c = vertex_map[v]
            if c != -1 and c not in mapped:
                mapped.append(c)
        mapped.sort()
        if len(mapped) < 2:
            continue
        for i in range(len(pins_out)):
            if pins_out[i] == mapped:
                weights_out[i] += h.hyperedge_weight[e]
                break
        else:
            pins_out.append(mapped)
            weights_out.append(h.hyperedge_weight[e])
    return vertex_weight, pins_out, weights_out


def vertex_weighted(h, rng):
    """``h`` with random vertex weights."""
    return Hypergraph(h.num_vertices, h.pins_by_hyperedge,
                      vertex_weight=[rng.randint(1, 5) for _ in range(h.num_vertices)],
                      hyperedge_weight=h.hyperedge_weight)


def random_mates(n, rng):
    """Random involutive mate array, a random share of vertices paired."""
    mate = [None] * n
    order = list(range(n))
    rng.shuffle(order)
    share = rng.random()
    for i in range(0, n - 1, 2):
        if rng.random() < share:
            u, v = order[i], order[i + 1]
            mate[u], mate[v] = v, u
    return mate


def assert_derived(derived, expected):
    vertex_weight, pins, weights = expected
    assert derived.num_vertices == len(vertex_weight)
    assert derived.vertex_weight == vertex_weight
    assert derived.pins_by_hyperedge == pins
    assert derived.hyperedge_weight == weights
    assert validate(derived) == []


class TestFusionOracle:
    def test_contract_matches_reference(self):
        rng = random.Random(501)
        for _ in range(300):
            h = vertex_weighted(random_weighted_hypergraph(rng), rng)
            m = Matching(random_mates(h.num_vertices, rng))
            link = contract(h, m)
            assert link.fine is h
            assert link.coarse_id == m.coarse_id
            assert_derived(link.coarse, reference_derive(h, m.coarse_id, m.num_coarse))

    def test_induce_matches_reference(self):
        rng = random.Random(502)
        for _ in range(300):
            h = vertex_weighted(random_weighted_hypergraph(rng), rng)
            assignment = [rng.randrange(2) for _ in range(h.num_vertices)]
            p = Partition.from_assignment(h, 2, assignment)
            for part in (0, 1):
                sub, back = induce_subhypergraph(h, p, part)
                assert back == [v for v in range(h.num_vertices) if assignment[v] == part]
                vertex_map = [-1] * h.num_vertices
                for i, v in enumerate(back):
                    vertex_map[v] = i
                assert_derived(sub, reference_derive(h, vertex_map, len(back)))
