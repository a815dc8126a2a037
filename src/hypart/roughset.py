"""Vertex core extraction via hyperedge clustering.

The coarsening stage treats hyperedges as features of the vertices. A
similarity graph over the hyperedges (two hyperedges are adjacent when
their scaled Jaccard similarity reaches a threshold ``s``) splits the
hyperedge set into disjoint clusters, the connected components of that
graph. Counting, per vertex, how many incident hyperedges fall into each
cluster and binarising those counts against a clustering threshold ``c``
yields a signature per vertex. Vertices sharing an identical nonzero
signature form a core; vertices whose signature is all zero are
non-core. Cores group vertices by global structure and are searched
first when looking for contraction pairs.
"""

from __future__ import annotations

import math
from collections import deque
from typing import List, NamedTuple, Tuple

from .model import Hypergraph


class EdgePartitioning(NamedTuple):
    """Assignment of every hyperedge to exactly one cluster.

    ``clusters`` are disjoint, cover all hyperedges and are stored as
    ascending id lists; ``cluster_of[e]`` is the cluster id of hyperedge
    ``e``.
    """

    cluster_of: List[int]
    clusters: List[List[int]]


class CoreDecomposition(NamedTuple):
    """Disjoint vertex cores plus singleton and non-core lists.

    ``cores`` holds groups of two or more vertices with identical
    nonzero signatures; ``singleton_cores`` holds vertices whose nonzero
    signature is unique (they cannot be pair-matched inside a core and
    behave like non-core vertices during matching); ``non_core`` holds
    vertices with an all-zero signature, including isolated vertices.
    """

    cores: List[List[int]]
    singleton_cores: List[int]
    non_core: List[int]


def build_edge_partitions(h: Hypergraph, s: float) -> EdgePartitioning:
    """Cluster hyperedges into connected components of the similarity graph.

    Two hyperedges with similarity >= ``s`` end up in the same cluster.
    Clusters are grown breadth-first from each still-unassigned
    hyperedge; because they are full connected components, the visiting
    order does not change the result.

    ``open_edges[v]`` counts the hyperedges of ``v`` that no cluster
    holds yet, and the walk skips pins whose count is 0. The skip is
    exact: every pin an unassigned hyperedge shares with the one being
    expanded still has that hyperedge open, so every overlap is counted.
    Once a giant cluster has formed, a vertex is walked only while some
    hyperedge of it is still open.

    On weighted levels the walk is also pruned by weight. The similarity
    of ``e`` and ``e2`` is ``fl(J * f)`` with ``J = inter / union <= 1``
    and ``f = (w(e) + w(e2)) / (2 * max weight)``. Rounding is monotone,
    so ``sim <= f``, and ``f`` grows with ``w(e2)``. Hence no partner
    lighter than the lightest weight whose ``f`` reaches ``s`` can join
    ``e``'s cluster, and dropping it changes no cluster. When the two
    lightest weights together already reach ``s`` nothing is prunable,
    and the walk runs as above. Otherwise each vertex's hyperedges are
    sorted heaviest first, once per call, and every incidence walk from
    ``e`` stops at the first partner lighter than that bound. Clusters
    are still verified by the full ``sim >= s`` expression.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"similarity threshold must lie in (0, 1), got {s}")
    m = h.num_hyperedges
    cluster_of = [-1] * m
    clusters: List[List[int]] = []
    max_w = h.max_hyperedge_weight()
    scale_den = 2.0 * max_w
    weights = h.hyperedge_weight
    by_edge = h.pins_by_hyperedge
    # Whether some pair fails on its weight factor alone.
    pruned = 2 * min(weights, default=max_w) / scale_den < s
    if pruned:
        heaviest_first = weights.__getitem__
        by_vertex = [sorted(incident, key=heaviest_first, reverse=True)
                     for incident in h.pins_by_vertex]
    else:
        by_vertex = h.pins_by_vertex
    overlap = [0] * m
    open_edges = [len(incident) for incident in by_vertex]

    for seed in range(m):
        if cluster_of[seed] != -1:
            continue
        c_id = len(clusters)
        cluster_of[seed] = c_id
        for v in by_edge[seed]:
            open_edges[v] -= 1
        members = [seed]
        queue = deque([seed])
        queue_pop = queue.popleft
        queue_push = queue.append
        while queue:
            e = queue_pop()
            pins = by_edge[e]
            size_e = len(pins)
            w_e = weights[e]
            touched = []
            touch = touched.append
            if pruned:
                lightest = _lightest_partner(w_e, scale_den, s)
                for v in pins:
                    if not open_edges[v]:
                        continue
                    for e2 in by_vertex[v]:
                        if weights[e2] < lightest:
                            break
                        if cluster_of[e2] == -1:
                            if overlap[e2] == 0:
                                touch(e2)
                            overlap[e2] += 1
            else:
                for v in pins:
                    if not open_edges[v]:
                        continue
                    for e2 in by_vertex[v]:
                        if cluster_of[e2] == -1:
                            if overlap[e2] == 0:
                                touch(e2)
                            overlap[e2] += 1
            for e2 in touched:
                inter = overlap[e2]
                overlap[e2] = 0
                pins2 = by_edge[e2]
                union = size_e + len(pins2) - inter
                sim = (inter / union) * ((w_e + weights[e2]) / scale_den)
                if sim >= s:
                    cluster_of[e2] = c_id
                    for v in pins2:
                        open_edges[v] -= 1
                    members.append(e2)
                    queue_push(e2)
        clusters.append(sorted(members))

    return EdgePartitioning(cluster_of, clusters)


def _lightest_partner(w_e: int, scale_den: float, s: float) -> int:
    """Smallest positive integer weight ``w`` with
    ``(w_e + w) / scale_den >= s``: the weight factor of the similarity,
    evaluated as it is there."""
    w = max(1, math.ceil(s * scale_den) - w_e)
    while w > 1 and (w_e + w - 1) / scale_den >= s:
        w -= 1
    while (w_e + w) / scale_den < s:
        w += 1
    return w


def extract_cores(h: Hypergraph, ep: EdgePartitioning, c: float,
                  drop_unit_clusters: bool = False) -> CoreDecomposition:
    """Group vertices by identical binary cluster signatures.

    The signature bit of vertex ``v`` for a cluster is set when the
    vertex has at least one incident hyperedge in the cluster and the
    fraction of its incident hyperedges falling into that cluster is at
    least ``c``. Requiring a positive count means that at ``c == 0`` a
    bit reads "any incidence" instead of marking every cluster.

    With ``drop_unit_clusters`` set, clusters containing a single
    hyperedge contribute no signature bits; combined with ``c == 0``
    this is the default thresholding strategy of the driver.

    Vertices of degree zero go straight to the non-core list. Grouping
    is order independent.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"clustering threshold must lie in [0, 1], got {c}")
    active = [True] * len(ep.clusters)
    if drop_unit_clusters:
        for c_id, members in enumerate(ep.clusters):
            if len(members) < 2:
                active[c_id] = False

    cluster_of = ep.cluster_of
    groups: dict[Tuple[int, ...], List[int]] = {}
    non_core: List[int] = []
    for v in range(h.num_vertices):
        incident = h.pins_by_vertex[v]
        d = len(incident)
        if d == 0:
            non_core.append(v)
            continue
        counts: dict[int, int] = {}
        for e in incident:
            c_id = cluster_of[e]
            counts[c_id] = counts.get(c_id, 0) + 1
        bits = tuple(sorted(
            c_id for c_id, cnt in counts.items()
            if active[c_id] and cnt / d >= c
        ))
        if not bits:
            non_core.append(v)
        else:
            groups.setdefault(bits, []).append(v)

    cores = [members for members in groups.values() if len(members) >= 2]
    singletons = [members[0] for members in groups.values() if len(members) == 1]
    return CoreDecomposition(cores, singletons, non_core)
