"""Bit-parallel FM on dense levels.

A level is dense when its mean vertex degree is at least its vertex
count (:func:`hypart.model.is_dense` holds the rule). There an FM move
that walks the pins of the moved vertex's hyperedges visits at least
``n`` hyperedges, although only ``n - 1`` other vertices exist. So on
such a level FM keeps each side's per-hyperedge pin counts as bit-sliced
Python ints, one int per bit of the count and one bit per hyperedge, and
after a move recounts each unlocked neighbour's gain exactly with
``int.bit_count``. The tables also cost initial candidates.

This module is imported on first use by :func:`hypart.model.dense_tables`
and :func:`hypart.refine.fm_pass`, so inputs without a dense level never
load it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .model import Hypergraph, dense_tables
from .refine import _FmState


class DenseTables(NamedTuple):
    """Bit-parallel incidence tables of one dense hypergraph.

    Bit ``e`` of each mask stands for hyperedge ``e``. ``masks[v]`` holds
    the hyperedges of vertex ``v`` and ``neighbours[v]`` the other
    vertices that share one with it. ``weight_planes[b]`` holds the
    hyperedges whose weight has bit ``b`` set, so a weighted sum over a
    set ``S`` of hyperedges is the sum over ``b`` of
    ``(S & weight_planes[b]).bit_count() << b``. ``vertex_planes[v]``
    lists the pairs ``(b, masks[v] & weight_planes[b])`` that are
    nonzero. A pin count fits in ``count_bits`` bits.
    """

    masks: List[int]
    neighbours: List[List[int]]
    weight_planes: List[int]
    vertex_planes: List[List[Tuple[int, int]]]
    count_bits: int

    def weight_of(self, edges: int) -> int:
        """Total weight of the hyperedges set in ``edges``."""
        return sum((edges & plane).bit_count() << b
                   for b, plane in enumerate(self.weight_planes))

    def cost(self, assignment: Sequence[int]) -> int:
        """Cut cost of a bipartition: the weight of the hyperedges with
        pins on both sides."""
        touched = [0, 0]
        for mask, a in zip(self.masks, assignment):
            touched[a] |= mask
        return self.weight_of(touched[0] & touched[1])


def build_tables(h: Hypergraph) -> Optional[DenseTables]:
    """The tables of ``h``, or None when a hyperedge weight is not a
    positive integer or a pin repeats; :func:`hypart.model.dense_tables`
    decides whether ``h`` is dense and caches the result."""
    weights = h.hyperedge_weight
    if not all(type(w) is int and w > 0 for w in weights):
        return None
    bit = (1).__lshift__
    masks = [sum(map(bit, incident)) for incident in h.pins_by_vertex]
    if any(mask.bit_count() != len(incident)
           for mask, incident in zip(masks, h.pins_by_vertex)):
        return None
    by_edge = h.pins_by_hyperedge
    neighbours = []
    for v, incident in enumerate(h.pins_by_vertex):
        near = set().union(*map(by_edge.__getitem__, incident))
        near.discard(v)
        neighbours.append(sorted(near))
    weight_planes = [sum(bit(e) for e, w in enumerate(weights) if w >> b & 1)
                     for b in range(max(weights, default=0).bit_length())]
    vertex_planes = [[(b, mask & plane) for b, plane in enumerate(weight_planes)
                      if mask & plane] for mask in masks]
    count_bits = max(map(len, by_edge), default=0).bit_length()
    return DenseTables(masks, neighbours, weight_planes, vertex_planes, count_bits)


def _ripple_add(planes: List[int], mask: int) -> None:
    """Add 1 to every bit-sliced count selected by ``mask``."""
    for j, plane in enumerate(planes):
        planes[j] = plane ^ mask
        mask &= plane
        if not mask:
            return


def _ripple_subtract(planes: List[int], mask: int) -> None:
    """Subtract 1 from every bit-sliced count selected by ``mask``."""
    for j, plane in enumerate(planes):
        planes[j] = plane ^ mask
        mask &= ~plane
        if not mask:
            return


class _DenseFmState(_FmState):
    """FM bookkeeping on a hypergraph with :class:`DenseTables`.

    Each side's pin counts are bit-sliced: ``planes[s][j]`` has bit ``e``
    set when bit ``j`` of the count of side ``s`` in hyperedge ``e`` is
    set. ``nz[s]`` marks the hyperedges with a pin on side ``s`` and
    ``ge2[s]`` those with two or more. A move is one ripple subtract and
    one ripple add of the vertex's incidence mask, after which each
    unlocked neighbour's gain is recounted exactly: a vertex on side
    ``s`` gains the weight of its hyperedges in ``nz[1 - s]`` minus that
    of its hyperedges in ``ge2[s]``. Buckets, vertex states, selection
    and rollback are those of :class:`_FmState`.
    """

    def _count(self) -> Tuple[List[int], int, List[Optional[bool]]]:
        tables = self.tables = dense_tables(self.h)
        planes: List[List[int]] = [[0] * tables.count_bits, [0] * tables.count_bits]
        for mask, a in zip(tables.masks, self.p.assignment):
            _ripple_add(planes[a], mask)
        self.planes = planes
        self.nz = [0, 0]
        self.ge2 = [0, 0]
        for s in (0, 1):
            self._flag(s)
        cut = self.nz[0] & self.nz[1]
        gains = [self._gain(u, a) for u, a in enumerate(self.p.assignment)]
        if self.boundary_only:
            eligible = [bool(mask & cut) for mask in tables.masks]
        else:
            eligible = [True] * self.h.num_vertices
        return gains, tables.weight_of(cut), eligible

    def _flag(self, s: int) -> None:
        """Recompute ``nz[s]`` and ``ge2[s]`` from the count planes."""
        ge2 = 0
        for plane in self.planes[s][1:]:
            ge2 |= plane
        self.ge2[s] = ge2
        self.nz[s] = ge2 | self.planes[s][0] if self.planes[s] else 0

    def _gain(self, u: int, s: int) -> int:
        other = self.nz[1 - s]
        own = self.ge2[s]
        return sum(((other & m).bit_count() - (own & m).bit_count()) << b
                   for b, m in self.tables.vertex_planes[u])

    def _count0(self) -> List[int]:
        planes = self.planes[0]
        return [sum((plane >> e & 1) << j for j, plane in enumerate(planes))
                for e in range(self.h.num_hyperedges)]

    def _update_gains(self, v: int, a: int) -> None:
        tables = self.tables
        nz = self.nz
        mask = tables.masks[v]
        _ripple_subtract(self.planes[a], mask)
        _ripple_add(self.planes[1 - a], mask)
        self._flag(0)
        self._flag(1)
        self.cost = tables.weight_of(nz[0] & nz[1])

        assignment = self.p.assignment
        gains = self.gains
        state = self.state
        buckets = self.buckets
        all_keys = self.keys
        vertex_planes = tables.vertex_planes
        ge2 = self.ge2
        # The loop inlines _gain: a call per neighbour made the pass about
        # a quarter slower.
        for u in tables.neighbours[v]:
            st = state[u]
            if st is None:
                continue
            s = assignment[u]
            other = nz[1 - s]
            own = ge2[s]
            ng = 0
            for b, m in vertex_planes[u]:
                ng += ((other & m).bit_count() - (own & m).bit_count()) << b
            g = gains[u]
            if st:
                if ng == g:
                    continue
                side = buckets[s]
                bucket = side[g]
                bucket.remove(u)
                if not bucket:
                    del side[g]
                    keys = all_keys[s]
                    del keys[bisect_left(keys, g)]
            else:
                # Unlocked pins of cut hyperedges are in the buckets, so
                # the hyperedge u shares with v was uncut, and the move
                # has just cut it.
                state[u] = True
                side = buckets[s]
            gains[u] = ng
            bucket = side.get(ng)
            if bucket is None:
                side[ng] = {u}
                insort(all_keys[s], ng)
            else:
                bucket.add(u)
