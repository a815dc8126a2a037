"""The whole V-cycle against its composed scalar oracles.

Each case runs :func:`hypart.partition_kway` twice on fresh copies of
one input. The second run swaps every fast path of the V-cycle for the
scalar definition that ``tests/reference.py`` holds:

- hyperedge clustering (``build_edge_partitions``) becomes the connected
  components of the pairwise similarity graph, numbered by smallest
  member (``numbered_reference``);
- core extraction becomes the paper's general rule at threshold 0 with
  unit clusters dropped (``reference_cores``);
- the threshold seed becomes the clamped clustering coefficient by its
  definition (``reference_threshold_seed``);
- a vertex's best mate becomes the argmax of ``weighted_jaccard``
  (``reference_best_mate``);
- FM refinement, in the driver and in the ``fm-seeded`` candidates,
  becomes the scalar reference FM (``reference_refine``), which
  recounts gains from scratch before every move.

Both runs must agree on the assignment, the cost, every bisection
record and the type of any error raised. The density predicate
``hypart.model.is_dense`` is forced the same way in both runs of a case,
each way on alternate cases, so the fast run also checks the
bit-parallel FM. ``COARSEST_SIZE`` is lowered so that inputs of 40-90
vertices coarsen over several levels while the scalar FM stays cheap.
Counters over the fast runs show that the cases reach the equal-weight
pair path, the weight-pruned walk, dense FM, the least-unbalanced
fallback of ``select_best``, two or more coarsened levels and an odd k.
One hand-built case puts the pruned walk's weight bound exactly on the
threshold, where the bound's first estimate is one too high.
"""

import random
from collections import Counter

import pytest

from hypart import Hypergraph, InfeasibleBalanceError, PartitionConfig, partition_kway
from hypart import coarsen, driver, initpart, model, refine, roughset
from hypart.dense import _DenseFmState

from reference import (naive_cost, numbered_reference, reference_best_mate,
                       reference_cores, reference_refine, reference_threshold_seed)

COARSEST_SIZE = 24


def refine_by_reference(h, p, mode, window, max_passes=2):
    """``refine_bipartition`` by the scalar reference FM, in place."""
    assignment, part_weight, _ = reference_refine(
        h, p.assignment, window, mode, refine.EARLY_EXIT_WINDOW, max_passes)
    p.assignment[:] = assignment
    p.part_weight[:] = part_weight
    return naive_cost(h, assignment)


def swap_in_oracles(patch):
    patch.setattr(driver, "build_edge_partitions", numbered_reference)
    patch.setattr(driver, "extract_cores", lambda h, ep: reference_cores(h, ep, 0.0, True))
    patch.setattr(driver, "initial_threshold", reference_threshold_seed)
    patch.setattr(coarsen, "_best_mate",
                  lambda h, u, free, incident_weight: reference_best_mate(h, u, free))
    patch.setattr(driver, "refine_bipartition", refine_by_reference)
    patch.setattr(initpart, "refine_bipartition", refine_by_reference)


def random_case(rng):
    """An input of 40-90 vertices, its k and its tolerance.

    Mixed draws have 2-9 pins per hyperedge and unit, size or random
    hyperedge weights; rect-like draws have unit hyperedges of five pins,
    whose equal-weight opening level takes the pair path.
    """
    n = rng.randint(40, 90)
    scheme = "unit"
    if rng.random() < 0.3:
        pins = [rng.sample(range(n), 5) for _ in range(rng.randint(n, 2 * n))]
    else:
        pins = [rng.sample(range(n), rng.randint(2, 9)) for _ in range(rng.randint(n, 2 * n))]
        scheme = rng.choice(("unit", "size", "random"))
    if scheme == "unit":
        edge_weight = None
    elif scheme == "size":
        edge_weight = [len(p) for p in pins]
    else:
        edge_weight = [rng.randint(1, 9) for _ in pins]
    vertex_weight = None if rng.random() < 0.5 else [rng.randint(1, 3) for _ in range(n)]
    k = rng.randint(2, 5)
    epsilon = rng.choice((0.02, 0.05, 0.1))
    return ((n, [sorted(p) for p in pins], vertex_weight, edge_weight), k, epsilon)


def bound_tie_case():
    """An input whose opening level puts the pruned walk's weight bound
    exactly on ``s``.

    Of its 50 hyperedges, 14 have three pins among vertices 0-29, share
    pins and count 1/2 each to the threshold seed; 36 have one pin among
    vertices 30-47 and count 0. So the seed is ``fl(7 / 50)``, and the
    heaviest hyperedge weighs 25. The least weight sum that reaches
    ``s`` is then 7, where ``ceil(s * 50)`` is 8. Hyperedges 0 and 1
    have the same pins and weigh 3 and 4, so their similarity is exactly
    ``s`` and they share a cluster; no other hyperedge holds their pins.
    """
    rng = random.Random(7)
    pins = [[0, 1, 2], [0, 1, 2]]
    pins += [sorted(rng.sample(range(3, 30), 3)) for _ in range(12)]
    pins += [[v] for v in range(30, 48)] * 2
    edge_weight = [3, 4] + [rng.randint(5, 25) for _ in range(12)] + [25] * 36
    return (48, pins, None, edge_weight), 2, 0.1


# The input of the strict xfail in tests/test_driver.py: both runs raise.
SWAP_ONLY = ((7, [[2, 4, 5, 6]], [5, 8, 8, 5, 1, 5, 2], None), 2, 0.05)


def run(spec, k, epsilon, dense, patch):
    """``(error type, None)`` or ``(None, (assignment, cost, bisection
    records))`` of one run on a fresh hypergraph, with ``is_dense``
    forced to ``dense``."""
    n, pins, vertex_weight, edge_weight = spec
    patch.setattr(model, "is_dense", lambda h: dense)
    h = Hypergraph(n, pins, vertex_weight=vertex_weight, hyperedge_weight=edge_weight)
    try:
        p, stats = partition_kway(h, PartitionConfig(k=k, epsilon=epsilon, seed=1))
    except (InfeasibleBalanceError, ValueError) as error:
        return type(error), None
    return None, (p.assignment, stats.cost, stats.bisections)


@pytest.fixture
def counts(monkeypatch):
    """Counters of the fast paths that the fast runs reach."""
    counts = Counter()
    monkeypatch.setattr(driver, "COARSEST_SIZE", COARSEST_SIZE)
    least = roughset._least
    pair_clusters = roughset._pair_clusters
    update_gains = _DenseFmState._update_gains

    def counted_least(holds, estimate):
        # The pruned walk searches its bound with weight_reaches, the
        # pair path its own with a lambda.
        counts["pruned walk"] += holds.__name__ == "weight_reaches"
        return least(holds, estimate)

    def counted_pair_clusters(*args):
        counts["pair path"] += 1
        return pair_clusters(*args)

    def counted_update_gains(state, v, a):
        counts["dense FM move"] += 1
        update_gains(state, v, a)

    monkeypatch.setattr(roughset, "_least", counted_least)
    monkeypatch.setattr(roughset, "_pair_clusters", counted_pair_clusters)
    monkeypatch.setattr(_DenseFmState, "_update_gains", counted_update_gains)
    return counts


def compare(monkeypatch, counts, spec, k, epsilon, dense):
    """Run a case fast and by the oracles, check that both agree, count
    what the fast run reached and return its error type or None."""
    error, fast = run(spec, k, epsilon, dense, monkeypatch)
    with monkeypatch.context() as patch:
        swap_in_oracles(patch)
        before = counts.copy()
        expected_error, expected = run(spec, k, epsilon, dense, patch)
        # The oracle run reaches none of the counted fast paths.
        assert counts == before
    assert error is expected_error
    if error is None:
        assignment, cost, records = fast
        assert assignment == expected[0]
        assert cost == expected[1]
        # The fast run sums the threshold seed in closed form and the
        # oracle hyperedge by hyperedge, so thresholds may differ in
        # their last bits.
        assert [dict(b, s=pytest.approx(b["s"], rel=1e-12)) for b in records] == expected[2]
        counts["odd k"] += k % 2
        counts["fallback"] += sum(b["fallback"] for b in records)
        counts["2+ levels"] += sum(b["levels"] >= 2 for b in records)
    return error


def test_vcycle_matches_composed_oracles(monkeypatch, counts):
    rng = random.Random(2049)
    cases = [random_case(rng) for _ in range(10)] + [bound_tie_case()]
    for index, (spec, k, epsilon) in enumerate(cases):
        compare(monkeypatch, counts, spec, k, epsilon, dense=index % 2 == 1)
    for name in ("pair path", "pruned walk", "dense FM move", "fallback", "2+ levels",
                 "odd k"):
        assert counts[name] > 0, counts


@pytest.mark.parametrize("dense", (False, True))
def test_swap_only_window_raises_in_both_runs(monkeypatch, counts, dense):
    assert compare(monkeypatch, counts, *SWAP_ONLY, dense) is InfeasibleBalanceError
