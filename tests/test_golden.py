"""Golden partition digests.

Each case partitions a small seeded hypergraph and compares the sha256
of the assignment with a recorded value. A change meant to preserve
behaviour (a faster FM engine, a leaner matching loop) must reproduce
every digest byte for byte; a change that alters partitions on purpose
records new digests and shows that quality holds elsewhere.

Regenerate the table with ``python tests/test_golden.py`` from a
checkout whose ``src`` is on ``PYTHONPATH``.
"""

import hashlib
import random

import pytest

from hypart import Hypergraph, PartitionConfig, run_many


def banded_hypergraph(seed, rows, band, max_pins, size_weights,
                      max_vertex_weight=1):
    """Square banded matrix as a column-net hypergraph, with a few random
    off-band pins and, optionally, random vertex weights."""
    rng = random.Random(seed)
    pins = []
    for c in range(rows):
        lo = max(0, c - band)
        hi = min(rows, c + band + 1)
        col = set(rng.sample(range(lo, hi), rng.randint(2, max_pins)))
        if rng.random() < 0.05:
            col.add(rng.randrange(rows))
        pins.append(sorted(col))
    edge_weights = [len(col) for col in pins] if size_weights else None
    vertex_weights = [rng.randint(1, max_vertex_weight) for _ in range(rows)]
    return Hypergraph(rows, pins, vertex_weight=vertex_weights,
                      hyperedge_weight=edge_weights)


# (name, hypergraph arguments, config arguments besides epsilon and seed)
CASES = [
    ("unit-k2", dict(seed=11, rows=300, band=12, max_pins=5, size_weights=False),
     dict(k=2)),
    ("size-k4", dict(seed=12, rows=300, band=12, max_pins=6, size_weights=True),
     dict(k=4)),
    ("unit-k8", dict(seed=13, rows=400, band=20, max_pins=5, size_weights=False),
     dict(k=8)),
    ("vweight-unit-k2", dict(seed=14, rows=300, band=12, max_pins=5, size_weights=False,
                             max_vertex_weight=4), dict(k=2)),
    ("vweight-size-k4", dict(seed=15, rows=300, band=15, max_pins=6, size_weights=True,
                             max_vertex_weight=3), dict(k=4)),
    ("vweight-size-k8", dict(seed=16, rows=400, band=20, max_pins=6, size_weights=True,
                             max_vertex_weight=5), dict(k=8)),
    # The best of three seeded runs; here the third run is the cheapest.
    ("runs3-unit-k4", dict(seed=27, rows=300, band=12, max_pins=5, size_weights=False),
     dict(k=4, runs=3)),
]

GOLDEN = {
    "unit-k2": "ab036c441e974621ee10281235f8dcb3136b46010740529bb742b81d91e9f4e6",
    "size-k4": "de8d65a7f901ea33264fd7fa6a79cd3f3cb264235ba6341aa9e3c4913a430b30",
    "unit-k8": "678ed2e4619b2ecd88c6442c5f3822bf30e1650a514eed399946b30c59637f4b",
    "vweight-unit-k2": "34121c278d0077e1741e3a663a4381ea42d3fbc234729f421eeea1d244310960",
    "vweight-size-k4": "138f9d0ec5833a19971072d2502ea1d0a2f74da22db371fbd22a6f5a58904932",
    "vweight-size-k8": "a1c7af05ebef6716c93be58eda8f1ada94c646b1fb88758fceb4b9935aa4112d",
    "runs3-unit-k4": "cef6ea83ef771e6257f0a99c533ddcb887421a333d4410faa310e9a8bf7eb687",
}


def partition_digest(args, cfg_args):
    """sha256 of the best partition over ``cfg_args.get("runs", 1)`` runs."""
    h = banded_hypergraph(**args)
    summary = run_many(h, PartitionConfig(epsilon=0.02, seed=1, **cfg_args))
    p = summary["best_partition"]
    return hashlib.sha256(",".join(map(str, p.assignment)).encode()).hexdigest()


@pytest.mark.parametrize("name,args,cfg_args", CASES, ids=[case[0] for case in CASES])
def test_golden_digest(name, args, cfg_args):
    assert partition_digest(args, cfg_args) == GOLDEN[name]


if __name__ == "__main__":
    for name, args, cfg_args in CASES:
        print(f'    "{name}": "{partition_digest(args, cfg_args)}",')
