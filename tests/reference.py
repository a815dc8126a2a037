"""Scalar reference definitions that the tests use as oracles.

The partitioner computes these quantities inside fused, incremental
loops; the definitions here spell each one out directly, one pair or one
vertex at a time, so the tests can check the fast paths against them.
None of them is on the partitioning path, so they live with the tests
rather than in the package. :func:`cc_oracle_hypergraph` draws the
random inputs the clustering-coefficient oracle is checked on.

:func:`brute_force_bipartition` is the exhaustive reference
bipartitioner. It is the only user of numpy, which it imports on its
first call.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Tuple

from hypart import (CoreDecomposition, EdgePartitioning, Hypergraph,
                    InfeasibleBalanceError, Partition)

MAX_VERTICES = 20


def degree(h: Hypergraph, v: int) -> int:
    """Number of hyperedges incident to vertex ``v``."""
    return len(h.pins_by_vertex[v])


def edge_size(h: Hypergraph, e: int) -> int:
    """Number of pins of hyperedge ``e``."""
    return len(h.pins_by_hyperedge[e])


def reference_cc_edge(h: Hypergraph, e: int) -> float:
    """The clustering coefficient of hyperedge ``e`` by its definition:
    the overlap-weighted sum over the other hyperedges that share a pin
    with ``e``, over their total weight counted once per shared pin."""
    pins = h.pins_by_hyperedge[e]
    size = len(pins)
    if size <= 1:
        return 0.0
    weights = h.hyperedge_weight
    overlap: dict[int, int] = {}
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


def reference_cc(h: Hypergraph) -> float:
    """Clustering coefficient of ``h``: the mean of
    :func:`reference_cc_edge` over all hyperedges."""
    if h.num_hyperedges == 0:
        raise ValueError("clustering coefficient undefined without hyperedges")
    return sum(reference_cc_edge(h, e) for e in range(h.num_hyperedges)) / h.num_hyperedges


def reference_threshold_seed(h: Hypergraph) -> float:
    """The similarity threshold's seed: :func:`reference_cc` clamped to
    the working range [0.05, 0.95]."""
    return min(max(reference_cc(h), 0.05), 0.95)


def cc_oracle_hypergraph(rng: random.Random) -> Hypergraph:
    """Random weighted hypergraph for the clustering-coefficient oracle:
    unit-size and isolated hyperedges are common, and some draws add a
    dense row (one vertex in every hyperedge of size two or more)."""
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


def connectivity_degree(h: Hypergraph, p: Partition, e: int) -> int:
    """Number of distinct parts touched by hyperedge ``e``."""
    if not 0 <= e < h.num_hyperedges:
        raise IndexError(f"hyperedge id {e} out of range")
    assignment = p.assignment
    return len({assignment[v] for v in h.pins_by_hyperedge[e]})


def info_value(h: Hypergraph, v: int, e: int) -> float:
    """Information-system value of vertex ``v`` at hyperedge ``e``.

    The weight of ``e`` normalised by the total incident weight of ``v``
    when ``e`` contains ``v``, and 0 otherwise. Values over all
    hyperedges of a vertex with positive degree sum to 1.
    """
    incident = h.pins_by_vertex[v]
    if e not in incident:
        return 0.0
    total = sum(h.hyperedge_weight[e2] for e2 in incident)
    return h.hyperedge_weight[e] / total


def hyperedge_similarity(h: Hypergraph, ei: int, ej: int,
                         max_weight: int | None = None) -> float:
    """Scaled Jaccard similarity between two distinct hyperedges.

    Jaccard index of the two pin sets, scaled by
    (w(ei) + w(ej)) / (2 * max hyperedge weight). Equals the plain
    Jaccard index when all hyperedge weights are equal.
    """
    if ei == ej:
        raise ValueError("similarity requires two distinct hyperedges")
    if max_weight is None:
        max_weight = h.max_hyperedge_weight()
    a = h.pins_by_hyperedge[ei]
    b = h.pins_by_hyperedge[ej]
    inter = _sorted_intersection_size(a, b)
    union = len(a) + len(b) - inter
    if union == 0:
        return 0.0
    scale = (h.hyperedge_weight[ei] + h.hyperedge_weight[ej]) / (2.0 * max_weight)
    return (inter / union) * scale


def _sorted_intersection_size(a: List[int], b: List[int]) -> int:
    i = j = count = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            count += 1
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return count


def reduced_value(h: Hypergraph, ep: EdgePartitioning, v: int, c_id: int) -> int:
    """Number of hyperedges of cluster ``c_id`` incident to vertex ``v``."""
    cluster_of = ep.cluster_of
    return sum(1 for e in h.pins_by_vertex[v] if cluster_of[e] == c_id)


def reference_cores(h: Hypergraph, ep: EdgePartitioning, c: float,
                    drop_unit_clusters: bool = False) -> CoreDecomposition:
    """Cores under the paper's general signature rule.

    The signature bit of vertex ``v`` for a cluster is set when the
    vertex has at least one incident hyperedge in the cluster and the
    fraction of its incident hyperedges falling into that cluster is at
    least ``c``. Requiring a positive count means that at ``c == 0`` a
    bit reads "any incidence" instead of marking every cluster. With
    ``drop_unit_clusters`` set, clusters containing a single hyperedge
    contribute no signature bits. At ``c == 0`` with unit clusters
    dropped this is the rule of :func:`hypart.extract_cores`, and the
    lists come out in the same order: cores by smallest vertex, every
    list ascending.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"clustering threshold must lie in [0, 1], got {c}")
    active = [not (drop_unit_clusters and len(members) < 2) for members in ep.clusters]
    cluster_of = ep.cluster_of
    groups: dict[Tuple[int, ...], List[int]] = {}
    non_core: List[int] = []
    for v in range(h.num_vertices):
        incident = h.pins_by_vertex[v]
        d = len(incident)
        counts: dict[int, int] = {}
        for e in incident:
            c_id = cluster_of[e]
            counts[c_id] = counts.get(c_id, 0) + 1
        bits = tuple(sorted(c_id for c_id, cnt in counts.items()
                            if active[c_id] and cnt / d >= c))
        if bits:
            groups.setdefault(bits, []).append(v)
        else:
            non_core.append(v)
    cores = [members for members in groups.values() if len(members) >= 2]
    singletons = [members[0] for members in groups.values() if len(members) == 1]
    return CoreDecomposition(cores, singletons, non_core)


def weighted_jaccard(h: Hypergraph, u: int, v: int) -> float:
    """Weighted Jaccard similarity of two vertices' incidence sets.

    Sum of hyperedge weights over the shared hyperedges divided by the
    sum over the union. Zero when nothing is shared (including the case
    of two isolated vertices), one exactly for identical incidence.
    """
    if u == v:
        raise ValueError("weighted_jaccard requires two distinct vertices")
    a = h.pins_by_vertex[u]
    b = h.pins_by_vertex[v]
    weights = h.hyperedge_weight
    i = j = 0
    shared = union = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            shared += weights[x]
            union += weights[x]
            i += 1
            j += 1
        elif x < y:
            union += weights[x]
            i += 1
        else:
            union += weights[y]
            j += 1
    while i < la:
        union += weights[a[i]]
        i += 1
    while j < lb:
        union += weights[b[j]]
        j += 1
    if union == 0:
        return 0.0
    return shared / union


class OracleResult(NamedTuple):
    best_cost: int
    partition: Partition
    count_of_optima: int


def brute_force_bipartition(h: Hypergraph, epsilon: float) -> OracleResult:
    """Exact minimum-cost balanced bipartition by full enumeration.

    Enumerates every bipartition of a small hypergraph (vertex 0 is
    fixed in part 0, which halves the search space since cost and
    balance are symmetric under swapping the two part labels) and
    returns the exact optimum of the connectivity-minus-one cost over
    all balanced bipartitions with two non-empty parts.
    """
    import numpy as np

    n = h.num_vertices
    if n < 2:
        raise ValueError("need at least two vertices")
    if n > MAX_VERTICES:
        raise ValueError(f"too many vertices for enumeration ({n} > {MAX_VERTICES})")

    # Bit i of a mask means vertex i+1 sits in part 1; vertex 0 is pinned
    # to part 0.
    masks = np.arange(1 << (n - 1), dtype=np.int64)
    weight1 = np.zeros(masks.shape, dtype=np.int64)
    for i in range(n - 1):
        weight1 += h.vertex_weight[i + 1] * ((masks >> i) & 1)
    total = h.total_vertex_weight
    avg = total / 2.0
    tolerance = epsilon * avg + 1e-9
    feasible = (np.abs(weight1 - avg) <= tolerance) & (masks != 0)

    cost = np.zeros(masks.shape, dtype=np.int64)
    for e, pins in enumerate(h.pins_by_hyperedge):
        edge_mask = 0
        has_v0 = False
        for v in pins:
            if v == 0:
                has_v0 = True
            else:
                edge_mask |= 1 << (v - 1)
        inside = masks & edge_mask
        if has_v0:
            cut = inside != 0
        else:
            cut = (inside != 0) & (inside != edge_mask)
        cost += h.hyperedge_weight[e] * cut

    if not feasible.any():
        raise InfeasibleBalanceError("no balanced bipartition exists")
    sentinel = np.iinfo(np.int64).max
    guarded = np.where(feasible, cost, sentinel)
    best = int(guarded.min())
    index = int(guarded.argmin())
    count = int((guarded == best).sum())

    assignment = [0] * n
    for i in range(n - 1):
        assignment[i + 1] = (index >> i) & 1
    return OracleResult(best, Partition.from_assignment(h, 2, assignment), count)
