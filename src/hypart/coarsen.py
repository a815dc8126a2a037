"""Vertex matching, contraction and the similarity-threshold machinery.

Matching pairs vertices for contraction, first inside vertex cores and
then over the remaining pool until the per-level compression ratio
(fine vertex count over coarse vertex count) reaches
``MIN_COMPRESSION``. Contraction merges mates, drops hyperedges that
shrink to a single pin and fuses hyperedges with identical pin sets.
The threshold functions seed the similarity threshold used to build
hyperedge clusters from the input's clustering coefficient, in closed
form, and rescale it at each coarser level.
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
                   rng: random.Random) -> Tuple[List[Optional[int]], List[int]]:
    """Pair vertices inside each core by maximum weighted Jaccard.

    Per core: pick a random unmatched vertex, mate it with the most
    similar unmatched vertex of the same core (the lowest-id one when
    none shares a hyperedge with it), repeat. Returns the mate list
    (``mate[v]`` is the partner of ``v`` or None) and the sorted
    leftover pool: core members that stay unmatched, singleton-core
    vertices and non-core vertices. Both go to :func:`match_noncore`,
    which builds the level's :class:`Matching`.
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
    return mate, sorted(leftovers)


def match_noncore(h: Hypergraph, mate: List[Optional[int]], pool: Sequence[int],
                  rng: random.Random) -> Matching:
    """Augment the mate list over the leftover pool until compression
    suffices, and return the level's :class:`Matching`.

    Pool vertices are visited in random order; each unmatched one is
    paired with its most similar unmatched neighbour (a vertex sharing
    at least one hyperedge). Matching stops early once the projected
    compression ratio reaches ``MIN_COMPRESSION``; pair matching caps
    the ratio at 2 regardless. ``mate`` is augmented in place.
    """
    n = h.num_vertices
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


def _clamp(s: float) -> float:
    lo, hi = THRESHOLD_CLAMP
    return min(max(s, lo), hi)


def initial_threshold(h: Hypergraph) -> float:
    """Seed the similarity threshold: the mean of ``1 / (|e| - 1)`` over
    all hyperedges, clamped to ``THRESHOLD_CLAMP``.

    A hyperedge counts 0 when it has one pin or when none of its pins
    lies in another hyperedge. This is the hypergraph's clustering
    coefficient in closed form: a hyperedge's coefficient weighs each
    other hyperedge by its shared pins over ``|e| - 1`` and normalises by
    the same weights counted once per shared pin, so the overlap terms
    cancel. The seed therefore tracks hyperedge sizes, not how much the
    hyperedges overlap. Raises ValueError when ``h`` has no hyperedges.
    """
    m = h.num_hyperedges
    if m == 0:
        raise ValueError("clustering coefficient undefined without hyperedges")
    by_vertex = h.pins_by_vertex
    return _clamp(sum(1.0 / (len(pins) - 1) for pins in h.pins_by_hyperedge
                      if len(pins) > 1 and any(len(by_vertex[v]) > 1 for v in pins)) / m)


def update_threshold(s: float, old_degree: float, new_degree: float) -> float:
    """Rescale the threshold ``s`` by the inverse change of the average degree.

    The threshold follows s' = s * (old degree / new degree), clamped to
    the working range; unchanged degrees leave it untouched.
    """
    if old_degree <= 0 or new_degree <= 0:
        raise ValueError("average degrees must be positive")
    return _clamp(s * old_degree / new_degree)
