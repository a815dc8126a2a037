"""Multilevel V-cycle and recursive bisection to k parts.

One bisection coarsens the hypergraph level by level (hyperedge
clustering, core extraction, matching, contraction) until it is small
enough, partitions the coarsest level with a set of candidate
generators, then walks back up projecting and refining. k-way
partitioning splits k into ceil(k/2) and floor(k/2), bisects with target
weights in that ratio and recurses on the vertex-induced sub-hypergraph
of each side that splits again; a side of one part keeps the id its
bisection wrote. Balance bounds at every recursion node are anchored to
the global average part weight, so the leaf parts satisfy the balance
constraint directly.

All randomness flows from one seeded generator per run, which makes a
run a deterministic function of (input, config, seed).
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Optional, Tuple

from .coarsen import (LevelLink, contract, initial_threshold, match_in_cores,
                      match_noncore, update_threshold)
from .initpart import INIT_METHODS, generate_candidate, select_best
from .model import (BalanceWindow, Hypergraph, InfeasibleBalanceError,
                    Partition, cached, dense_tables, derive_hypergraph,
                    max_imbalance, part_interval, partition_cost, validate)
from .refine import refine_bipartition, project
from .roughset import CoreDecomposition, build_edge_partitions, extract_cores

PHASE_KEYS = ("overall", "build", "recursion", "projection", "hcg", "matching",
              "coarsening", "initpart", "refinement")

# Coarsening stops when a level compresses by less than this factor.
STAGNATION_RATIO = 1.05
# Coarsening stops once a level has at most this many vertices.
COARSEST_SIZE = 100
# Candidates per initial partitioning method at the coarsest level.
INIT_REPEATS = 4
# Number of finest levels that get an extra early-exit FM sweep on top
# of the boundary sweep run at every level.
FMEE_FINEST_LEVELS = 2


class PartitionConfig(NamedTuple):
    k: int = 2
    epsilon: float = 0.02
    seed: int = 1
    runs: int = 1

    def validate(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")


class RunStats(NamedTuple):
    """Wall times per phase plus the headline result of one run."""

    phases: Dict[str, float]
    cost: int
    imbalance: float
    bisections: List[dict]
    seed: int


class PhaseTimer:
    def __init__(self):
        self.times = {key: 0.0 for key in PHASE_KEYS}

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] += time.perf_counter() - start


class _Level(NamedTuple):
    """One coarsening level: its link to the next level, the similarity
    threshold its hyperedges were clustered at, and its number of
    hyperedge clusters with two or more hyperedges."""

    link: LevelLink
    s: float
    clusters: int


def _cluster_level(h: Hypergraph, last: Optional[_Level],
                   timer: PhaseTimer) -> Tuple[float, CoreDecomposition, int]:
    """Similarity threshold, vertex cores and the number of hyperedge
    clusters with two or more hyperedges of the coarsening level ``h``.

    When ``h`` opens the V-cycle (``last`` is None), the threshold is
    seeded by :func:`~hypart.coarsen.initial_threshold`: the clustering
    coefficient in closed form, the mean of ``1 / (|e| - 1)`` over the
    hyperedges that share a pin, clamped. Otherwise it rescales the
    threshold of the finer level ``last`` by the change in average
    degree. The counted clusters are the ones that make up the cores'
    signatures (:func:`~hypart.roughset.extract_cores`). Core extraction
    is timed in the ``matching`` phase.
    """
    with timer.phase("hcg"):
        if last is None:
            s = initial_threshold(h)
        else:
            s = update_threshold(last.s, last.link.fine.avg_degree(), h.avg_degree())
        ep = build_edge_partitions(h, s)
    with timer.phase("matching"):
        cores = extract_cores(h, ep)
        multi = len(ep.clusters) - list(map(len, ep.clusters)).count(1)
    return s, cores, multi


def _bipartition_window(h: Hypergraph, rng: random.Random, window: BalanceWindow,
                        timer: PhaseTimer) -> Tuple[Partition, dict]:
    """One full V-cycle on ``h`` targeting the given balance window.

    Coarsening appends one :class:`_Level` record per contracted level,
    and the bisection record and the uncoarsening walk read those
    records. The opening level (threshold seed, cores and cluster count
    of ``h``) depends only on ``h``, so it is kept on ``h`` and computed
    once, inside the timers of the first V-cycle that needs it. The
    record's ``cost`` is the cut that refinement of ``h`` returns. Raises
    :class:`InfeasibleBalanceError` when the refined partition of ``h``
    ends outside the window.
    """
    levels: List[_Level] = []
    current = h

    while current.num_vertices > COARSEST_SIZE and current.num_hyperedges > 0:
        if levels:
            s, cores, clusters = _cluster_level(current, levels[-1], timer)
        else:
            s, cores, clusters = cached(current, "opening_level",
                                        lambda: _cluster_level(current, None, timer))
        with timer.phase("matching"):
            mate, leftovers = match_in_cores(current, cores, rng)
            matching = match_noncore(current, mate, leftovers, rng)
        if matching.num_coarse == current.num_vertices:
            break
        with timer.phase("coarsening"):
            link = contract(current, matching)
        ratio = current.num_vertices / link.coarse.num_vertices
        levels.append(_Level(link, s, clusters))
        current = link.coarse
        if ratio < STAGNATION_RATIO:
            break

    with timer.phase("initpart"):
        candidates = []
        for method in INIT_METHODS:
            for _ in range(INIT_REPEATS):
                candidates.append(generate_candidate(current, method, rng, window=window))
        p = select_best(candidates, current, window=window)
        fallback = window.violation(p.part_weight[0]) > 0

    with timer.phase("refinement"):
        cost = _refine_level(current, p, window, level_pos=len(levels))

    for pos in range(len(levels) - 1, -1, -1):
        link = levels[pos].link
        with timer.phase("projection"):
            p = project(p, link)
        with timer.phase("refinement"):
            cost = _refine_level(link.fine, p, window, level_pos=pos)

    if window.violation(p.part_weight[0]) > 0:
        raise InfeasibleBalanceError(
            f"no balanced bipartition found (part weights {p.part_weight})")

    dense_levels = (dense_tables(current) is not None) + sum(
        dense_tables(level.link.fine) is not None for level in levels)
    info = {"levels": len(levels), "window": [window.lower, window.upper],
            "r": [level.link.fine.num_vertices / level.link.coarse.num_vertices
                  for level in levels],
            "s": [level.s for level in levels],
            "clusters": [level.clusters for level in levels],
            "cost": cost,
            "coarsest": {"vertices": current.num_vertices,
                         "hyperedges": current.num_hyperedges,
                         "pins": current.num_pins()},
            "dense_fm": dense_levels, "fallback": fallback}
    return p, info


def _refine_level(h: Hypergraph, p: Partition, window: BalanceWindow,
                  level_pos: int) -> int:
    """Refine ``p`` on level ``h`` in place and return its cut."""
    cost = refine_bipartition(h, p, "bfm", window=window)
    if level_pos < FMEE_FINEST_LEVELS:
        cost = refine_bipartition(h, p, "fm-ee", window=window)
    return cost


def bipartition(h: Hypergraph, cfg: PartitionConfig) -> Tuple[Partition, dict]:
    """Bisect ``h``: the k=2 case of :func:`partition_kway`, returning its
    partition and the record of its one bisection."""
    p, stats = partition_kway(h, cfg._replace(k=2))
    return p, stats.bisections[0]


def induce_subhypergraph(h: Hypergraph, p: Partition, part: int) -> Tuple[Hypergraph, List[int]]:
    """Vertex-induced sub-hypergraph of one part, densely renumbered.

    Hyperedges are restricted to in-part pins by the fusion rule of
    :func:`~hypart.model.derive_hypergraph`: they are dropped when fewer
    than two pins remain, and restrictions that become identical fuse
    with summed weights. Returns the sub-hypergraph and the map from its
    vertex ids back to the ids of ``h``.
    """
    back: List[int] = [v for v, a in enumerate(p.assignment) if a == part]
    vertex_map = [-1] * h.num_vertices
    for i, v in enumerate(back):
        vertex_map[v] = i
    return derive_hypergraph(h, vertex_map, len(back)), back


def partition_kway(h: Hypergraph, cfg: PartitionConfig) -> Tuple[Partition, RunStats]:
    """Partition ``h`` into ``cfg.k`` parts by recursive bisection.

    The work that depends only on ``h`` is kept on ``h``: its validation
    report and the threshold seed, cores and cluster count of its first
    coarsening level. Repeated calls on the same object, and the runs of
    :func:`run_many`, do it once, inside the phase timers of the first
    call that needs it.
    """
    cfg.validate()
    timer = PhaseTimer()
    start = time.perf_counter()
    with timer.phase("build"):
        problems = cached(h, "problems", lambda: validate(h))
        if problems:
            raise ValueError("invalid hypergraph: " + "; ".join(problems[:5]))
        if cfg.k > h.num_vertices:
            raise ValueError(f"k={cfg.k} exceeds the number of vertices {h.num_vertices}")
        assignment = [0] * h.num_vertices

    rng = random.Random(cfg.seed)
    bisections: List[dict] = []
    part_lo, part_hi = part_interval(h.total_vertex_weight / cfg.k, cfg.epsilon)
    if not cfg.k * part_lo <= h.total_vertex_weight <= cfg.k * part_hi:
        raise InfeasibleBalanceError(
            f"total weight {h.total_vertex_weight} cannot split into {cfg.k} "
            f"parts within tolerance {cfg.epsilon}")

    # Invariant: every vertex of a node already holds the id of the
    # node's first part in ``assignment`` (at the root, the initial 0). A
    # bisection adds k1 to its side-1 vertices, which then hold the id of
    # side 1's first part, so a side whose quota is one part is final and
    # only a side that splits again is induced, side 0's subtree first.
    def recurse(sub: Hypergraph, back: List[int], k_node: int) -> None:
        k1 = (k_node + 1) // 2
        k2 = k_node // 2
        window = BalanceWindow.split(sub.total_vertex_weight, k1, k2, part_lo, part_hi)
        p, info = _bipartition_window(sub, rng, window, timer)
        bisections.append(info)
        for v, side in zip(back, p.assignment):
            assignment[v] += k1 * side
        for side, k_side in ((0, k1), (1, k2)):
            if k_side > 1:
                with timer.phase("recursion"):
                    sub_side, back_side = induce_subhypergraph(sub, p, side)
                    back_side = [back[v] for v in back_side]
                recurse(sub_side, back_side, k_side)

    recurse(h, list(range(h.num_vertices)), cfg.k)
    p = Partition.from_assignment(h, cfg.k, assignment)
    imbalance = max_imbalance(h, p)
    if imbalance > cfg.epsilon + 1e-9:
        raise InfeasibleBalanceError(
            f"final partition misses the balance constraint: {imbalance:.4f} > {cfg.epsilon}")
    if min(p.part_sizes()) == 0:
        raise InfeasibleBalanceError("final partition has an empty part")
    cost = partition_cost(h, p)
    timer.times["overall"] = time.perf_counter() - start
    stats = RunStats(phases=dict(timer.times), cost=cost, imbalance=imbalance,
                     bisections=bisections, seed=cfg.seed)
    return p, stats


def std_dev_percent(costs: List[int]) -> float:
    """Population standard deviation as a percentage of the mean cost."""
    if len(costs) < 2:
        return 0.0
    mean = math.fsum(costs) / len(costs)
    if mean == 0:
        return 0.0
    return math.sqrt(math.fsum((c - mean) ** 2 for c in costs) / len(costs)) / mean * 100.0


def run_many(h: Hypergraph, cfg: PartitionConfig) -> dict:
    """Run ``cfg.runs`` seeded repetitions and summarise them.

    Repetition i uses seed ``cfg.seed + i`` and returns what
    :func:`partition_kway` returns for that seed. The runs share what no
    seed affects, which is kept on ``h`` (see :func:`partition_kway`), so
    the phase times of later runs exclude it. The summary carries the
    best run (lowest cost, earliest seed on ties), the mean cost and the
    population standard deviation as a percentage of the mean.
    """
    cfg.validate()
    results: List[Tuple[Partition, RunStats]] = []
    for i in range(cfg.runs):
        run_cfg = cfg._replace(seed=cfg.seed + i, runs=1)
        results.append(partition_kway(h, run_cfg))
    costs = [stats.cost for _, stats in results]
    best_index = min(range(len(results)), key=lambda i: (costs[i], i))
    best_partition, best_stats = results[best_index]
    return {
        "best_cost": costs[best_index],
        "mean_cost": math.fsum(costs) / len(costs),
        "std_dev_percent": std_dev_percent(costs),
        "best_partition": best_partition,
        "best_stats": best_stats,
        "runs": [stats for _, stats in results],
    }
