"""Vertex core extraction via hyperedge clustering.

The coarsening stage treats hyperedges as features of the vertices. A
similarity graph over the hyperedges (two hyperedges are adjacent when
their scaled Jaccard similarity reaches a threshold ``s``) splits the
hyperedge set into disjoint clusters, the connected components of that
graph. A vertex's signature is the set of clusters of two or more
hyperedges that hold one of its hyperedges. Vertices sharing an
identical nonempty signature form a core; vertices with an empty
signature are non-core. Cores group vertices by global structure and
are searched first when looking for contraction pairs.

The paper's general rule, which binarises each vertex's per-cluster
share of its hyperedges against a clustering threshold, is kept in
``tests/reference.py`` as the oracle ``reference_cores``. The rule here
is its case of threshold 0 with unit clusters dropped.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Optional, Tuple

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
    nonempty signatures; ``singleton_cores`` holds vertices whose
    nonempty signature is unique (they cannot be pair-matched inside a
    core and behave like non-core vertices during matching);
    ``non_core`` holds vertices with an empty signature, including
    isolated vertices.
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
    so ``sim <= f``, and ``f`` depends only on the integer sum
    ``w(e) + w(e2)`` and grows with it. So one bound serves the whole
    level: ``need``, the least sum whose ``f`` reaches ``s``, found once
    per call by :func:`_least` on the expression itself. No partner
    lighter than ``need - w(e)`` can join ``e``'s cluster, and dropping
    it changes no cluster. When the two lightest weights together
    already reach ``s`` nothing is prunable, and the walk runs as above.
    Otherwise each vertex's hyperedges are sorted heaviest first, once
    per call, and every incidence walk from ``e`` stops at the first
    partner lighter than ``need - w(e)``; where that is below 1, no
    partner stops it. Clusters are still verified by the full
    ``sim >= s`` expression.

    Equal-weight levels on which every two hyperedges that share two
    pins reach ``s``, but the largest and the smallest hyperedge sharing
    one pin do not, are clustered by :func:`_pair_clusters` instead.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"similarity threshold must lie in (0, 1), got {s}")
    m = h.num_hyperedges
    weights = h.hyperedge_weight
    by_edge = h.pins_by_hyperedge
    max_w = h.max_hyperedge_weight()
    min_w = min(weights, default=max_w)
    if m and min_w == max_w:
        sizes = list(map(len, by_edge))
        smin, smax = min(sizes), max(sizes)

        def one_pin_reaches(k: int) -> bool:
            # The similarity of one shared pin in a k-pin union.
            return 1 / k >= s

        # Two shared pins always reach s: their least similarity,
        # fl(2 / (2 * smax - 2)), rounds as fl(1 / (smax - 1)) does. One
        # shared pin does not for the largest and the smallest hyperedge.
        # Where it does, the level forms a giant cluster, which the walk's
        # open-edge skip makes far cheaper than pairs.
        if (smax >= 2 and one_pin_reaches(smax - 1)
                and not one_pin_reaches(smax + smin - 1)):
            # The guard keeps 1 / s below 2 * smax, so the search is short.
            # It must come first: int(1 / s) overflows for a subnormal s.
            longest = _least(lambda k: not one_pin_reaches(k), int(1 / s)) - 1
            return _pair_clusters(h, sizes, longest)
    cluster_of = [-1] * m
    clusters: List[List[int]] = []
    scale_den = 2.0 * max_w

    def weight_reaches(t: int) -> bool:
        # The weight factor, which depends only on the integer sum
        # t = w(e) + w(e2), against s.
        return t / scale_den >= s

    # Whether some pair fails on its weight factor alone.
    pruned = not weight_reaches(2 * min_w)
    if pruned:
        need = _least(weight_reaches, math.ceil(s * scale_den))
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
        # members is the breadth-first queue: the loop also reaches every
        # hyperedge appended while it runs.
        for e in members:
            pins = by_edge[e]
            size_e = len(pins)
            w_e = weights[e]
            touched = []
            touch = touched.append
            if pruned:
                lightest = need - w_e
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
        clusters.append(sorted(members))

    return EdgePartitioning(cluster_of, clusters)


def _pair_clusters(h: Hypergraph, sizes: List[int], longest: int) -> EdgePartitioning:
    """Clusters of an equal-weight level by union-find over shared pins.

    The caller has checked that every two hyperedges sharing two or
    more pins reach ``s``: with ``i >= 2`` shared pins the similarity is
    at least ``fl(2 / (a + b - 2)) >= fl(2 / (2 * smax - 2))``. So two
    hyperedges are adjacent in the similarity graph exactly when they
    share a vertex pair, or share one pin and their sizes ``a`` and
    ``b`` satisfy ``a + b - 1 <= longest``.

    ``longest`` is the largest union size ``k`` with ``fl(1 / k) >= s``,
    found once per level by :func:`_least`. The weight factor is exactly
    1.0 here, so one shared pin of a ``k``-pin union gives similarity
    ``fl(1 / k)``; it falls as ``k`` grows and rounding is monotone, so
    one shared pin reaches ``s`` exactly when the union has at most
    ``longest`` pins.

    Shared pairs: for each vertex ``u``, one dict maps every higher pin
    ``v`` of ``u``'s hyperedges to the first hyperedge holding both, and
    each later hyperedge holding both joins it. That visits the
    ``C(|e|, 2)`` pin pairs of each hyperedge once, where the walk
    visits ``sum(deg(v)**2)`` incidences, so it pays where vertex degree
    far exceeds hyperedge size. Only one dict lives at a time; one dict
    keyed by pin pairs for the whole level costs measurably more memory.

    One shared pin ``v``: if two hyperedges of ``v`` join, each joins
    the smallest hyperedge of ``v`` too, since that bound only loosens
    as a size falls. So each vertex joins its smallest hyperedge to
    every hyperedge of ``v`` within the bound, which keeps every
    component and costs one visit per pin.

    A union keeps the smaller root, so each root is its component's
    smallest member and clusters are numbered by smallest member, as
    the walk numbers them.
    """
    m = len(sizes)
    parent = list(range(m))
    by_edge = h.pins_by_hyperedge

    def find(e: int) -> int:
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def union(a: int, b: int) -> None:
        a = find(a)
        b = find(b)
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b

    for u, incident in enumerate(h.pins_by_vertex):
        if len(incident) < 2:
            continue
        first: dict[int, int] = {}
        for e in incident:
            for v in by_edge[e]:
                if v > u:
                    f = first.setdefault(v, e)
                    if f != e:
                        union(e, f)

    if 2 * min(sizes) - 1 <= longest:
        size_of = sizes.__getitem__
        for incident in h.pins_by_vertex:
            if len(incident) < 2:
                continue
            smallest = min(incident, key=size_of)
            limit = longest + 1 - sizes[smallest]
            for e in incident:
                if sizes[e] <= limit:
                    union(smallest, e)

    cluster_of = [0] * m
    clusters: List[List[int]] = []
    for e in range(m):
        root = find(e)
        if root == e:
            cluster_of[e] = len(clusters)
            clusters.append([e])
        else:
            c_id = cluster_of[root]
            cluster_of[e] = c_id
            clusters[c_id].append(e)
    return EdgePartitioning(cluster_of, clusters)


def _least(holds: Callable[[int], bool], estimate: int) -> int:
    """Smallest integer ``t >= 1`` at which the monotone test ``holds``
    is true, searched from ``estimate`` in both directions.

    The float boundaries of the similarity are found this way: the test
    is the expression the walk evaluates, so the bound is exact however
    the estimate rounds.
    """
    t = max(1, estimate)
    while t > 1 and holds(t - 1):
        t -= 1
    while not holds(t):
        t += 1
    return t


def extract_cores(h: Hypergraph, ep: EdgePartitioning) -> CoreDecomposition:
    """Group vertices by identical cluster signatures.

    The signature of vertex ``v`` is the ascending list of the clusters
    that hold two or more hyperedges, one of them incident to ``v``.
    Only the members of those clusters are visited, in ascending cluster
    id, so each pin's list comes out sorted. A vertex with an empty
    signature (isolated, or all of whose hyperedges are unit clusters)
    is non-core.

    Cores are listed in order of their smallest vertex and each is
    ascending, as are ``singleton_cores`` and ``non_core``.
    """
    signature: List[Optional[List[int]]] = [None] * h.num_vertices
    by_edge = h.pins_by_hyperedge
    for c_id, members in enumerate(ep.clusters):
        if len(members) < 2:
            continue
        for e in members:
            for v in by_edge[e]:
                sig = signature[v]
                if sig is None:
                    signature[v] = [c_id]
                elif sig[-1] != c_id:
                    sig.append(c_id)

    groups: dict[Tuple[int, ...], List[int]] = {}
    non_core: List[int] = []
    for v, sig in enumerate(signature):
        if sig is None:
            non_core.append(v)
        else:
            groups.setdefault(tuple(sig), []).append(v)

    cores = [members for members in groups.values() if len(members) >= 2]
    singletons = [members[0] for members in groups.values() if len(members) == 1]
    return CoreDecomposition(cores, singletons, non_core)
