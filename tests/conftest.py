"""Shared fixtures: reference hypergraphs and independent mini-oracles."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from hypart import BalanceWindow, Hypergraph

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    """``perfbench/workloads.py`` as a module, without putting the
    benchmark directory on ``sys.path``."""
    name = "perfbench_workloads"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up in sys.modules.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


# A hand-checked 16-vertex / 16-hyperedge example used across the test
# suite. Per-vertex normalised incidence values, the similarity clusters
# at threshold 0.5 and the core decomposition at clustering threshold
# 0.5 are all known for it (frozen as golden data in the tests).
SAMPLE16_PINS = [
    [0, 1, 4],        # edge 0
    [1, 3, 7],        # edge 1
    [2, 3, 5],        # edge 2
    [3, 7, 11, 15],   # edge 3
    [0, 9, 12],       # edge 4
    [6, 8],           # edge 5
    [1, 2, 4, 6],     # edge 6
    [3, 7, 15],       # edge 7
    [2, 5, 8],        # edge 8
    [0, 4, 9],        # edge 9
    [5, 8, 10],       # edge 10
    [3, 7, 11, 15],   # edge 11
    [9, 12],          # edge 12
    [6, 8, 10, 13],   # edge 13
    [1, 14],          # edge 14
    [3, 7, 11, 15],   # edge 15
]

# Connected components of the similarity graph at threshold 0.5.
SAMPLE16_CLUSTERS = [
    frozenset({0, 4, 9, 12}),
    frozenset({14}),
    frozenset({1, 3, 7, 11, 15}),
    frozenset({6}),
    frozenset({5, 13}),
    frozenset({2, 8, 10}),
]

# Core decomposition at clustering threshold 0.5.
SAMPLE16_CORES = [
    frozenset({0, 4, 9, 12}),
    frozenset({2, 5}),
    frozenset({3, 7, 11, 15}),
    frozenset({8, 10}),
    frozenset({6, 13}),
]
SAMPLE16_SINGLETONS = {14}
SAMPLE16_NON_CORE = {1}


def make_sample16(size_weights=False):
    weights = [len(p) for p in SAMPLE16_PINS] if size_weights else None
    return Hypergraph(16, SAMPLE16_PINS, hyperedge_weight=weights)


@pytest.fixture
def sample16():
    return make_sample16()


def make_path4():
    """Four vertices chained by three size-2 hyperedges."""
    return Hypergraph(4, [[0, 1], [1, 2], [2, 3]])


@pytest.fixture
def path4():
    return make_path4()


def random_hypergraph(rng, min_vertices=4, max_vertices=16,
                      min_edges=3, max_edges=20, size_weights=False):
    n = rng.randint(min_vertices, max_vertices)
    m = rng.randint(min_edges, max_edges)
    pins = []
    for _ in range(m):
        size = rng.randint(2, min(4, n))
        pins.append(sorted(rng.sample(range(n), size)))
    weights = [len(p) for p in pins] if size_weights else None
    return Hypergraph(n, pins, hyperedge_weight=weights)


def random_weighted_hypergraph(rng, max_vertices=24, max_edges=30, max_weight=3):
    """Random hypergraph with small random hyperedge weights.

    Small weights, repeated pin sets and a few isolated vertices make
    exact similarity ties and empty neighbourhoods common, which is what
    the oracle tests need to exercise the tie-breaks.
    """
    n = rng.randint(2, max_vertices)
    isolated = set(rng.sample(range(n), rng.randint(0, n // 4)))
    live = [v for v in range(n) if v not in isolated]
    pins = []
    for _ in range(rng.randint(1, max_edges)):
        if pins and rng.random() < 0.15:
            pins.append(list(rng.choice(pins)))
            continue
        size = rng.randint(1, min(5, len(live)))
        pins.append(sorted(rng.sample(live, size)))
    weights = [rng.randint(1, max_weight) for _ in pins]
    return Hypergraph(n, pins, hyperedge_weight=weights)


def symmetric_window(h, epsilon):
    """Part-0 weight window of a bisection of ``h`` within ``epsilon``."""
    return BalanceWindow.symmetric(h.total_vertex_weight, epsilon)


def naive_cost(h, assignment):
    """Independent connectivity-minus-one tally, one hyperedge at a time."""
    total = 0
    for e, pins in enumerate(h.pins_by_hyperedge):
        if not pins:
            continue
        parts = set()
        for v in pins:
            parts.add(assignment[v])
        total += h.hyperedge_weight[e] * (len(parts) - 1)
    return total


def naive_connectivity(h, assignment, e):
    return len({assignment[v] for v in h.pins_by_hyperedge[e]})


class FixedOrderRng(random.Random):
    """Random source whose shuffle is a no-op and whose picks are the
    lowest index, for tests that pin a visiting order."""

    def shuffle(self, x):
        return None

    def randrange(self, *args):
        if len(args) == 1:
            return 0
        return args[0]

    def choice(self, seq):
        return seq[0]
