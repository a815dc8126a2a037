"""Exhaustive reference bipartitioner for tests and acceptance checks.

Enumerates every bipartition of a small hypergraph (vertex 0 is fixed in
part 0, which halves the search space since cost and balance are
symmetric under swapping the two part labels) and returns the exact
optimum of the connectivity-minus-one cost over all balanced
bipartitions with two non-empty parts.

numpy is imported inside :func:`brute_force_bipartition`, its only user,
so importing :mod:`hypart` or running the command line never loads it.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import Hypergraph, InfeasibleBalanceError, Partition

MAX_VERTICES = 20


class OracleResult(NamedTuple):
    best_cost: int
    partition: Partition
    count_of_optima: int


def brute_force_bipartition(h: Hypergraph, epsilon: float) -> OracleResult:
    """Exact minimum-cost balanced bipartition by full enumeration."""
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
