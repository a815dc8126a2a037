"""Vertex matching, contraction and the similarity-threshold machinery.

Matching pairs vertices for contraction, first inside vertex cores and
then over the remaining pool until the per-level compression ratio
(fine vertex count over coarse vertex count) reaches
``MIN_COMPRESSION``. Contraction merges mates, drops hyperedges that
shrink to a single pin and fuses hyperedges with identical pin sets.
The clustering-coefficient helpers seed and update the similarity
threshold used to build hyperedge clusters at each level.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .model import Hypergraph, derive_hypergraph
from .roughset import CoreDecomposition

# Non-core matching stops once a level compresses by this factor.
MIN_COMPRESSION = 1.5
THRESHOLD_CLAMP = (0.05, 0.95)


class Matching:
    """An involutive pairing of vertices plus the induced coarse ids.

    ``mate[v]`` is the partner of ``v`` or None; coarse ids are assigned
    in ascending order of the lowest vertex id of each group, so equal
    mate arrays always produce the same coarse numbering.
    """

    __slots__ = ("mate", "coarse_id", "num_coarse")

    def __init__(self, mate: Sequence[Optional[int]]):
        self.mate = list(mate)
        n = len(self.mate)
        coarse_id = [-1] * n
        nxt = 0
        for v in range(n):
            if coarse_id[v] != -1:
                continue
            coarse_id[v] = nxt
            m = self.mate[v]
            if m is not None:
                coarse_id[m] = nxt
            nxt += 1
        self.coarse_id = coarse_id
        self.num_coarse = nxt


class LevelLink(NamedTuple):
    """One coarsening step: the coarse hypergraph plus the vertex map."""

    fine: Hypergraph
    coarse: Hypergraph
    coarse_id: List[int]


class ThresholdState(NamedTuple):
    """Similarity threshold plus the average degree it was tuned for."""

    s: float
    avg_degree: float


def _best_mate(h: Hypergraph, u: int, free: set,
               incident_weight: List[int]) -> Optional[int]:
    """Vertex of ``free`` with maximum weighted Jaccard to ``u``.

    Ties break to the lower vertex id. Returns None when no vertex of
    ``free`` shares a hyperedge with ``u``.
    """
    shared: dict[int, int] = {}
    weights = h.hyperedge_weight
    for e in h.pins_by_vertex[u]:
        w = weights[e]
        for x in h.pins_by_hyperedge[e]:
            if x != u and x in free:
                shared[x] = shared.get(x, 0) + w
    if not shared:
        return None
    wu = incident_weight[u]
    best = None
    best_j = -1.0
    for x, sw in shared.items():
        union = wu + incident_weight[x] - sw
        j = sw / union if union > 0 else 0.0
        if j > best_j or (j == best_j and x < best):
            best_j = j
            best = x
    return best


def match_in_cores(h: Hypergraph, cores: CoreDecomposition,
                   rng: random.Random) -> Tuple[Matching, List[int]]:
    """Pair vertices inside each core by maximum weighted Jaccard.

    Per core: pick a random unmatched vertex, mate it with the most
    similar unmatched vertex of the same core (the lowest-id one when
    none shares a hyperedge with it), repeat. Core members that
    stay unmatched, singleton-core vertices and non-core vertices form
    the leftover pool handed to :func:`match_noncore`.
    """
    mate: List[Optional[int]] = [None] * h.num_vertices
    incident_weight = h.vertex_incident_weights()
    leftovers: List[int] = []
    for core in cores.cores:
        unmatched = sorted(core)
        unmatched_set = set(unmatched)
        while len(unmatched) >= 2:
            u = unmatched.pop(rng.randrange(len(unmatched)))
            unmatched_set.discard(u)
            v = _best_mate(h, u, unmatched_set, incident_weight)
            if v is None:
                v = unmatched[0]
            mate[u] = v
            mate[v] = u
            del unmatched[bisect_left(unmatched, v)]
            unmatched_set.discard(v)
        leftovers.extend(unmatched)
    leftovers.extend(cores.singleton_cores)
    leftovers.extend(cores.non_core)
    return Matching(mate), sorted(leftovers)


def match_noncore(h: Hypergraph, m: Matching, pool: Sequence[int],
                  rng: random.Random) -> Matching:
    """Augment a matching over the leftover pool until compression suffices.

    Pool vertices are visited in random order; each unmatched one is
    paired with its most similar unmatched neighbour (a vertex sharing
    at least one hyperedge). Matching stops early once the projected
    compression ratio reaches ``MIN_COMPRESSION``; pair matching caps
    the ratio at 2 regardless.
    """
    n = h.num_vertices
    mate = list(m.mate)
    pairs = sum(1 for x in mate if x is not None) // 2

    def ratio_reached() -> bool:
        return n >= MIN_COMPRESSION * (n - pairs)

    if ratio_reached() or not pool:
        return Matching(mate)

    incident_weight = h.vertex_incident_weights()
    # Every unmatched vertex is a candidate mate, not only the pool.
    free = {v for v in range(n) if mate[v] is None}
    order = list(pool)
    rng.shuffle(order)
    for u in order:
        if u not in free:
            continue
        best = _best_mate(h, u, free, incident_weight)
        if best is None:
            continue
        mate[u] = best
        mate[best] = u
        free.discard(u)
        free.discard(best)
        pairs += 1
        if ratio_reached():
            break
    return Matching(mate)


def contract(h: Hypergraph, m: Matching) -> LevelLink:
    """Merge mates into coarse vertices.

    Coarse vertex weights are sums over the merged fine vertices, and the
    hyperedges follow the fusion rule of :func:`~hypart.model.derive_hypergraph`:
    those that shrink to a single pin are dropped and those with identical
    coarse pin sets fuse with summed weights.
    """
    coarse = derive_hypergraph(h, m.coarse_id, m.num_coarse)
    return LevelLink(h, coarse, m.coarse_id)


def cc_edge(h: Hypergraph, e: int) -> float:
    """Clustering coefficient of one hyperedge.

    For a hyperedge of size above one: the overlap-weighted sum over all
    other intersecting hyperedges, normalised by the total weight of the
    other hyperedges incident to its pins (counted once per shared pin).
    Unit-size hyperedges and hyperedges with an isolated neighbourhood
    score 0. Both sums exclude the hyperedge itself, which makes the
    value invariant under uniform scaling of all hyperedge weights.

    The two sums differ only by the factor ``1 / (|e| - 1)``: with
    ``cnt`` the number of pins ``e2`` shares with ``e``, the numerator
    is ``sum(cnt / (|e| - 1) * w(e2))`` and the denominator is
    ``sum(cnt * w(e2))``. So the value is ``1 / (|e| - 1)`` whenever a
    pin of ``e`` lies in another hyperedge (has degree two or more), and
    0 otherwise, which is how it is computed; the overlap structure does
    not enter it.
    """
    if not 0 <= e < h.num_hyperedges:
        raise IndexError(f"hyperedge id {e} out of range")
    pins = h.pins_by_hyperedge[e]
    size = len(pins)
    if size > 1:
        by_vertex = h.pins_by_vertex
        for v in pins:
            if len(by_vertex[v]) > 1:
                return 1.0 / (size - 1)
    return 0.0


def cc_hypergraph(h: Hypergraph) -> float:
    """Average clustering coefficient over all hyperedges.

    By the identity in :func:`cc_edge` this is the mean of
    ``1 / (|e| - 1)`` over the hyperedges that share a pin with another
    one (the rest count as 0): it tracks hyperedge sizes, not how much
    the hyperedges overlap. It costs at most one degree lookup per pin.
    """
    if h.num_hyperedges == 0:
        raise ValueError("clustering coefficient undefined without hyperedges")
    return sum(cc_edge(h, e) for e in range(h.num_hyperedges)) / h.num_hyperedges


def _clamp(s: float) -> float:
    lo, hi = THRESHOLD_CLAMP
    return min(max(s, lo), hi)


def initial_threshold(h: Hypergraph) -> ThresholdState:
    """Seed the similarity threshold with the hypergraph's CC, clamped."""
    return ThresholdState(_clamp(cc_hypergraph(h)), h.avg_degree())


def update_threshold(ts: ThresholdState, new_avg_degree: float) -> ThresholdState:
    """Rescale the threshold by the inverse change of the average degree.

    The threshold follows s' = s * (old degree / new degree), clamped to
    the working range; unchanged degrees leave it untouched.
    """
    if ts.avg_degree <= 0 or new_avg_degree <= 0:
        raise ValueError("average degrees must be positive")
    return ThresholdState(_clamp(ts.s * ts.avg_degree / new_avg_degree), new_avg_degree)
