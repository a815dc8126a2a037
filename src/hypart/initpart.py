"""Candidate bipartitions of the coarsest hypergraph.

Three generators are available: random assignment (each vertex goes to a
random part that still has capacity), linear assignment (vertices fill a
random starting part up to its target weight, then the other part) and
an FM-developed candidate grown from a one-vertex seed. The best
balanced candidate by cut cost wins; when no candidate is balanced the
least unbalanced one is returned for refinement to repair.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from .model import (BalanceWindow, Hypergraph, InfeasibleBalanceError,
                    Partition, dense_tables, partition_cost)
from .refine import refine_bipartition

INIT_METHODS = ("random", "linear", "fm-seeded")


def _ensure_both_parts(assignment: List[int]) -> None:
    ones = sum(assignment)
    sizes = [len(assignment) - ones, ones]
    for part in (0, 1):
        if sizes[part] == 0:
            donor = 1 - part
            for v, a in enumerate(assignment):
                if a == donor:
                    assignment[v] = part
                    break


class _CostedCandidate(Partition):
    """A candidate that carries the cut cost FM tracked while growing it,
    so that :func:`select_best` need not recount it. ``cost`` is the cost
    at generation; later moves do not update it."""

    __slots__ = ("cost",)


def generate_candidate(h: Hypergraph, method: str, rng: random.Random,
                       window: BalanceWindow) -> Partition:
    """Produce one 2-way candidate with the given method."""
    n = h.num_vertices
    if n < 2:
        raise InfeasibleBalanceError("cannot bipartition fewer than two vertices")
    if method not in INIT_METHODS:
        raise ValueError(f"unknown init method {method!r}; expected one of {INIT_METHODS}")
    total = h.total_vertex_weight
    if max(h.vertex_weight) > min(window.upper, total - window.lower):
        raise InfeasibleBalanceError("a single vertex exceeds the part weight bound")

    if method == "fm-seeded":
        seed_vertex = rng.randrange(n)
        assignment = [0] * n
        assignment[seed_vertex] = 1
        p = _CostedCandidate.from_assignment(h, 2, assignment)
        # Passes run until one changes nothing; the cap is a safety net.
        p.cost = refine_bipartition(h, p, "fm-ee", window=window, max_passes=12)
        # FM never moves the last vertex off a side and keeps the part
        # weights exact, so the result needs no repair.
        return p

    assignment = [0] * n
    # Upper capacity per part; respecting both caps keeps the final
    # weights inside the window because the caps sum to more than the
    # total by construction.
    cap = (window.upper, total - window.lower)
    if method == "random":
        order = list(range(n))
        rng.shuffle(order)
        weights = [0, 0]
        for v in order:
            w = h.vertex_weight[v]
            feasible = [part for part in (0, 1) if weights[part] + w <= cap[part]]
            if len(feasible) == 2:
                part = feasible[rng.randrange(2)]
            elif feasible:
                part = feasible[0]
            else:
                part = 0 if cap[0] - weights[0] >= cap[1] - weights[1] else 1
            assignment[v] = part
            weights[part] += w
    else:  # linear
        start = rng.randrange(2)
        target = window.target if start == 0 else total - window.target
        filled = 0
        part = start
        for v in range(n):
            w = h.vertex_weight[v]
            if part == start and filled + w > target:
                part = 1 - start
            assignment[v] = part
            if part == start:
                filled += w

    _ensure_both_parts(assignment)
    return Partition.from_assignment(h, 2, assignment)


def select_best(candidates: Sequence[Partition], h: Hypergraph,
                window: BalanceWindow) -> Partition:
    """Pick the cheapest balanced candidate, or the least unbalanced one.

    Among candidates inside the balance window the minimum-cost one wins
    (ties go to the earliest candidate); if none is balanced, the one
    with the smallest violation wins and refinement is expected to
    repair the balance. An ``fm-seeded`` candidate of
    :func:`generate_candidate` carries the cut its refinement returned;
    other candidates are counted here, from the dense tables of ``h``
    when it has them.
    """
    if not candidates:
        raise ValueError("select_best needs at least one candidate")
    tables = dense_tables(h)
    best = None
    best_key = None
    for index, p in enumerate(candidates):
        violation = window.violation(p.part_weight[0])
        if violation == 0:
            if isinstance(p, _CostedCandidate):
                cost = p.cost
            elif tables is not None:
                cost = tables.cost(p.assignment)
            else:
                cost = partition_cost(h, p)
            key = (0, cost, index)
        else:
            key = (1, violation, index)
        if best_key is None or key < best_key:
            best_key = key
            best = p
    return best
