"""FM-style local refinement of bipartitions and level projection.

Two pass flavours are supported. A boundary pass (``bfm``) only makes
vertices that touch a cut hyperedge eligible to move, growing the
eligible set as the boundary moves. An early-exit pass (``fm-ee``)
starts with every vertex eligible and aborts once ``EARLY_EXIT_WINDOW``
consecutive moves fail to produce a new best state. Both flavours
move the maximum-gain admissible vertex, lock it, update neighbour gains
incrementally and finally roll back to the best state seen: the lowest
balance violation, then the lowest cost, so balanced states come first.
A move is admissible when the resulting part-0 weight stays inside the
balance window widened by one maximum vertex weight (single moves must
stay possible on coarse levels where vertices are heavy), or when it
strictly reduces the balance violation; moves that would empty a part
are never admissible. Vertex weights are positive, so a move empties
its side exactly when the side weighs no more than the moved vertex.

Eligible vertices sit in per-side gain buckets (gain -> set of vertices
of that part), and each side keeps the gains of its buckets as one
ascending list, updated whenever a bucket is created or emptied, so its
last entry is the side's top gain. Selection takes each side's best
admissible move, the maximum gain and then the lowest vertex id, and
compares the two sides by gain, then prefers the move off the part
above its target, then the lower vertex id.

Within one selection the accepted part-0 weights form one integer
interval. Bounds and weights are integers, so violations are exact.
Once per pass, ``lo = min(lower, ceil(target - wmax))`` and
``hi = max(upper, floor(target + wmax))``, so the window widened by one
maximum vertex weight holds the integers ``[lo, hi]``. With ``v`` the
current violation, the part-0 weights whose violation is lower than now
are ``[lower - v + 1, upper + v - 1]``, empty when ``v = 0``. Both sets
hold ``[lower, upper]`` when ``v > 0``, and ``[lo, hi]`` always does, so
their union is ``[min(lo, lower - v + 1), max(hi, upper + v - 1)]``.
The current part-0 weight is in it or one past the end on the side of
its violation, so a move off side 0, which lowers the part-0 weight,
can only leave the interval through its lower end, and a move off
side 1 only through its upper end. Each side therefore has one heaviest
movable weight, :meth:`_FmState.limit`: the distance to that end,
capped one below the side's weight so that the side never empties. A
side whose limit reaches the level's heaviest vertex takes the lowest
id of its top bucket, a side whose limit is below the level's lightest
vertex is skipped, and only in between are buckets walked downward to
the first one holding a vertex within the limit. The argument needs a
nonempty window, which :func:`fm_pass` checks.

Each vertex is in one of three states: in a gain bucket, unlocked but
outside the buckets (a ``bfm`` vertex that touches no cut hyperedge
yet), or locked. The invariant is that every unlocked pin of a cut
hyperedge is in a bucket. It holds when a pass starts, and a move that
cuts a hyperedge puts that hyperedge's unlocked pins into the buckets,
so an unlocked vertex outside the buckets whose gain changes is always
a pin of a hyperedge the move has just cut, and enters the buckets.

Gains are updated after a move in one of two ways, which give the same
gains and therefore the same moves. :class:`_FmState` walks the pins of
the moved vertex's critical hyperedges. On a level with dense tables
(:func:`~hypart.model.dense_tables`), the subclass
:class:`hypart.dense._DenseFmState` recounts each unlocked neighbour's
gain from bit-sliced pin counts instead.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Set, Tuple

from .coarsen import LevelLink
from .model import BalanceWindow, Hypergraph, Partition, dense_tables


# The two pass flavours: boundary FM and early-exit FM.
FM_MODES = ("bfm", "fm-ee")
# An fm-ee pass stops after this many consecutive moves without a new
# best state.
EARLY_EXIT_WINDOW = 50


def project(p_coarse: Partition, link: LevelLink) -> Partition:
    """Map a coarse partition back to the fine hypergraph of a level.

    Contraction sums the weights of merged vertices, so the part weights
    carry over unchanged.
    """
    if len(p_coarse.assignment) != link.coarse.num_vertices:
        raise ValueError("partition does not match the coarse hypergraph of this link")
    assignment = [p_coarse.assignment[c] for c in link.coarse_id]
    return Partition(p_coarse.k, assignment, p_coarse.part_weight)


def _recount(h: Hypergraph, assignment: List[int]) -> Tuple[List[int], List[int], int]:
    """Part-0 pin count of every hyperedge, FM gain of every vertex and
    the cut cost of a bipartition, from scratch.

    The gain of a vertex is the cost drop of moving it alone to the other
    part: an incident hyperedge adds its weight when the other part
    already holds a pin of it, and subtracts it when the vertex's own
    part keeps another pin of it. ``to1[e]`` is that contribution for a
    pin of ``e`` in part 0, ``to0[e]`` for a pin in part 1.
    """
    side_of = assignment.__getitem__
    by_edge = h.pins_by_hyperedge
    weights = h.hyperedge_weight
    count1 = [sum(map(side_of, pins)) for pins in by_edge]
    count0 = [len(pins) - c1 for pins, c1 in zip(by_edge, count1)]
    to1 = [w * ((c1 > 0) - (c0 > 1)) for w, c0, c1 in zip(weights, count0, count1)]
    to0 = [w * ((c0 > 0) - (c1 > 1)) for w, c0, c1 in zip(weights, count0, count1)]
    cost = sum([w for w, c0, c1 in zip(weights, count0, count1) if c0 and c1])
    lookup = (to1.__getitem__, to0.__getitem__)
    gains = [sum(map(lookup[a], incident))
             for a, incident in zip(assignment, h.pins_by_vertex)]
    return count0, gains, cost


class _FmState:
    """Bookkeeping for one FM pass: pin counts, gains, buckets and
    vertex states.

    ``state[v]`` is True while ``v`` is in a gain bucket, False while it
    is unlocked but outside the buckets, and None once it is locked.
    ``buckets[a]`` maps a gain to the set of bucketed vertices of part
    ``a`` with that gain, and ``keys[a]`` lists exactly those gains in
    ascending order.
    """

    def __init__(self, h: Hypergraph, p: Partition, window: BalanceWindow,
                 boundary_only: bool):
        self.h = h
        self.p = p
        self.window = window
        self.boundary_only = boundary_only
        assignment = p.assignment

        self.gains, self.cost, self.state = self._count()
        gains = self.gains
        buckets: List[Dict[int, Set[int]]] = [{}, {}]
        for v, in_bucket in enumerate(self.state):
            if in_bucket:
                buckets[assignment[v]].setdefault(gains[v], set()).add(v)
        self.buckets = buckets
        self.keys = [sorted(side) for side in buckets]

        # Balance violation of the current part-0 weight; the window is
        # fixed for the pass, so apply_move keeps it current.
        self.violation = window.violation(p.part_weight[0])
        self.wmin = min(h.vertex_weight, default=1)
        self.wmax = h.max_vertex_weight()
        # The integers of the window widened by one maximum vertex weight.
        self.lo = min(window.lower, math.ceil(window.target - self.wmax))
        self.hi = max(window.upper, math.floor(window.target + self.wmax))

    def _count(self) -> Tuple[List[int], int, List[Optional[bool]]]:
        """Gains, cut cost and the initial vertex states, from scratch;
        keeps the part-0 pin counts."""
        h = self.h
        self.count0, gains, cost = _recount(h, self.p.assignment)
        if not self.boundary_only:
            return gains, cost, [True] * h.num_vertices
        eligible = [False] * h.num_vertices
        for c0, pins in zip(self.count0, h.pins_by_hyperedge):
            if 0 < c0 < len(pins):
                for v in pins:
                    eligible[v] = True
        return gains, cost, eligible

    def limit(self, side: int) -> int:
        """Heaviest vertex weight that may move off ``side`` now."""
        w0, w1 = self.p.part_weight
        v = self.violation
        if side == 0:
            return min(w0 - 1, w0 - min(self.lo, self.window.lower - v + 1))
        return min(w1 - 1, max(self.hi, self.window.upper + v - 1) - w0)

    def _side_best(self, a: int) -> Optional[Tuple[int, int]]:
        """``(gain, vertex)`` of the best admissible move off side ``a``:
        the maximum gain, then the lowest vertex id, among the vertices
        no heavier than :meth:`limit`."""
        side = self.buckets[a]
        if not side:
            return None
        limit = self.limit(a)
        if limit >= self.wmax:
            top = self.keys[a][-1]
            return top, min(side[top])
        if limit < self.wmin:
            return None
        weight = self.h.vertex_weight
        for gain in reversed(self.keys[a]):
            movable = [u for u in side[gain] if weight[u] <= limit]
            if movable:
                return gain, min(movable)
        return None

    def select(self) -> Optional[int]:
        """Max-gain admissible vertex; ties prefer the move off the part
        above its target, then the lower vertex id."""
        best0 = self._side_best(0)   # would move into part 1
        best1 = self._side_best(1)   # would move into part 0
        if best0 is None or best1 is None:
            best = best0 or best1
            return None if best is None else best[1]
        if best0[0] != best1[0]:
            return best0[1] if best0[0] > best1[0] else best1[1]
        # Part 1 sits above its target exactly when part 0 sits below.
        w0 = self.p.part_weight[0]
        if w0 > self.window.target:
            return best0[1]
        if w0 < self.window.target:
            return best1[1]
        return min(best0[1], best1[1])

    def apply_move(self, v: int) -> None:
        p = self.p
        a = p.assignment[v]
        b = 1 - a
        # Unhook v first: it leaves side a, and a locked vertex takes no
        # gain updates.
        if self.state[v]:
            side = self.buckets[a]
            gain = self.gains[v]
            bucket = side[gain]
            bucket.remove(v)
            if not bucket:
                del side[gain]
                keys = self.keys[a]
                del keys[bisect_left(keys, gain)]
        self.state[v] = None
        self._update_gains(v, a)
        weight = self.h.vertex_weight[v]
        p.assignment[v] = b
        p.part_weight[a] -= weight
        p.part_weight[b] += weight
        self.violation = self.window.violation(p.part_weight[0])

    def _update_gains(self, v: int, a: int) -> None:
        """Update pin counts, cost, gains, buckets and vertex states for
        the move of the locked vertex ``v`` off side ``a``, walking the
        pins of the critical hyperedges of ``v``."""
        h = self.h
        assignment = self.p.assignment
        gains = self.gains
        state = self.state
        buckets = self.buckets
        all_keys = self.keys
        count0 = self.count0
        pins_by_hyperedge = h.pins_by_hyperedge
        hyperedge_weight = h.hyperedge_weight
        cost = self.cost
        for e in h.pins_by_vertex[v]:
            pins = pins_by_hyperedge[e]
            w = hyperedge_weight[e]
            size = len(pins)
            c0 = count0[e]
            if a == 0:
                c_from = c0
                count0[e] = c0 - 1
            else:
                c_from = size - c0
                count0[e] = c0 + 1
            c_to = size - c_from
            # With (c_from, c_to) the pin counts of e on sides a and b
            # before the move, a pin left on side a gains
            # w * ([c_to == 0] + [c_from == 2]) and a pin on side b gains
            # -w * ([c_from == 1] + [c_to == 1]). Only such critical nets
            # change any gain.
            if c_to == 0:
                if c_from == 1:
                    continue
                # e enters the cut: every unlocked pin of it sits on side
                # a and takes a nonzero delta, so it enters the buckets.
                cost += w
                delta_a = 2 * w if c_from == 2 else w
                delta_b = 0
            else:
                if c_from == 1:
                    cost -= w
                delta_a = w if c_from == 2 else 0
                delta_b = -w * ((c_from == 1) + (c_to == 1))
                if not delta_a and not delta_b:
                    continue
            for u in pins:
                st = state[u]
                if st is None:
                    continue
                s = assignment[u]
                delta = delta_a if s == a else delta_b
                if not delta:
                    continue
                g = gains[u]
                ng = g + delta
                gains[u] = ng
                side = buckets[s]
                if st:
                    bucket = side[g]
                    bucket.remove(u)
                    if not bucket:
                        del side[g]
                        keys = all_keys[s]
                        del keys[bisect_left(keys, g)]
                else:
                    # Unlocked pins of cut nets are in the buckets, so
                    # e is the net entering the cut.
                    state[u] = True
                bucket = side.get(ng)
                if bucket is None:
                    side[ng] = {u}
                    insort(all_keys[s], ng)
                else:
                    bucket.add(u)
        self.cost = cost


def fm_pass(h: Hypergraph, p: Partition, mode: str,
            window: BalanceWindow) -> Tuple[int, int]:
    """Run one FM pass of flavour ``mode`` in place and return
    ``(cost, delta)``: the cut of ``p`` after the pass's rollback, and
    that cut minus the cut the pass started from.

    The delta is never positive when the input satisfies the balance
    window; from an unbalanced input the pass prioritises reducing the
    violation, in which case the cost may rise.
    """
    if p.k != 2:
        raise ValueError("fm_pass refines bipartitions only")
    if mode not in FM_MODES:
        raise ValueError(f"unknown FM mode {mode!r}; expected one of {FM_MODES}")
    if window.lower > window.upper:
        # Move selection relies on the window being a nonempty interval.
        raise ValueError("empty balance window")

    if dense_tables(h) is None:
        state = _FmState(h, p, window, boundary_only=(mode == "bfm"))
    else:
        from .dense import _DenseFmState
        state = _DenseFmState(h, p, window, boundary_only=(mode == "bfm"))
    initial_cost = state.cost
    # States compare by violation, then cost; violations are exact, so
    # balanced states, whose violation is 0, come first.
    best_key = (state.violation, state.cost)
    best_index = 0
    history: List[int] = []
    stall = 0

    while True:
        v = state.select()
        if v is None:
            break
        state.apply_move(v)
        history.append(v)
        key = (state.violation, state.cost)
        if key < best_key:
            best_key = key
            best_index = len(history)
            stall = 0
        else:
            stall += 1
            if mode == "fm-ee" and stall >= EARLY_EXIT_WINDOW:
                break

    # Roll back to the best prefix.
    for v in reversed(history[best_index:]):
        b = p.assignment[v]
        a = 1 - b
        w = h.vertex_weight[v]
        p.assignment[v] = a
        p.part_weight[b] -= w
        p.part_weight[a] += w
    return best_key[1], best_key[1] - initial_cost


def refine_bipartition(h: Hypergraph, p: Partition, mode: str,
                       window: BalanceWindow, max_passes: int = 2) -> int:
    """Run up to ``max_passes`` FM passes of flavour ``mode``, stopping
    early when a pass changes nothing; return the cut of ``p`` after the
    last pass."""
    if max_passes < 1:
        raise ValueError(f"max_passes must be at least 1, got {max_passes}")
    for _ in range(max_passes):
        violation_before = window.violation(p.part_weight[0])
        cost, delta = fm_pass(h, p, mode, window)
        if delta == 0 and window.violation(p.part_weight[0]) == violation_before:
            break
    return cost
