"""Seeded matrix generators, one per benchmark workload.

Each generator is a pure function of the workload seed and returns the
pattern of a sparse matrix as a list of column pin lists (0-based row
ids). The partitioner only ever sees the Matrix Market file written
from it. Every generator asserts the structural property that justifies
its workload, so a later change to a generator cannot silently drop it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

Columns = List[List[int]]


class PropertyError(RuntimeError):
    """A generated matrix lacks the property its workload exists for."""


def band(seed: int, n: int, band_width: int = 60) -> Tuple[int, Columns]:
    """Square banded matrix, columns of 2-8 pins, 5% random entries.

    The same family as the desk-scale smoke test: sparse columns near
    the diagonal plus scattered long-range entries, which leaves about
    1.4% of the rows empty (isolated vertices).
    """
    rng = random.Random(seed)
    columns: Columns = []
    for j in range(n):
        degree = rng.choice((2, 3, 3, 4, 4, 5, 6, 8))
        rows = set()
        for _ in range(degree):
            if rng.random() < 0.05:
                rows.add(rng.randrange(n))
            else:
                rows.add(min(n - 1, max(0, j + rng.randint(-band_width, band_width))))
        columns.append(sorted(rows))
    stats = matrix_stats(n, columns)
    if stats["empty_rows"] == 0 or stats["max_col_size"] > 8:
        raise PropertyError(f"band: needs empty rows and columns of at most 8 pins, got {stats}")
    return n, columns


def rect(seed: int, rows: int, cols: int, per_col: int = 5) -> Tuple[int, Columns]:
    """Rectangular matrix, five times wider than tall, 5 random rows per column.

    Every vertex (row) then sits in about 25 hyperedges (columns), which
    makes the hyperedge similarity walk of clustering the dominant cost.
    """
    rng = random.Random(seed)
    columns = [sorted(rng.sample(range(rows), per_col)) for _ in range(cols)]
    stats = matrix_stats(rows, columns)
    if stats["empty_rows"] or stats["max_col_size"] != per_col or stats["min_col_size"] != per_col:
        raise PropertyError(f"rect: needs {per_col} rows in every column and no empty row, got {stats}")
    return rows, columns


def hub(seed: int, n: int, dense: int = 3, dense_share: float = 0.08,
        alpha: float = 1.5, cap_share: float = 0.02) -> Tuple[int, Columns]:
    """Square matrix with power-law column sizes plus a few dense columns.

    Sparse column sizes are the quantiles of a Pareto law (shape
    ``alpha``, minimum 2) capped at ``cap_share`` of the rows, so every
    seed draws the same multiset of sizes and only the placement of the
    pins varies; the capped columns carry much of the cut under size
    weights and a random count of them would make the cut vary widely
    between seeds. ``dense`` columns hold ``dense_share`` of the rows
    each. Rows left empty get one entry in a random sparse column.
    """
    rng = random.Random(seed)
    m = n - dense
    cap = max(2, int(cap_share * n))
    sizes = [min(cap, int(2.0 * (1.0 - (j + 0.5) / m) ** (-1.0 / alpha))) for j in range(m)]
    rng.shuffle(sizes)
    columns = [set(rng.sample(range(n), size)) for size in sizes]
    columns += [set(rng.sample(range(n), int(dense_share * n))) for _ in range(dense)]
    covered = set().union(*columns)
    for r in range(n):
        if r not in covered:
            columns[rng.randrange(m)].add(r)
    columns = [sorted(c) for c in columns]
    stats = matrix_stats(n, columns)
    if stats["empty_rows"] or stats["max_col_size"] <= 0.05 * n:
        raise PropertyError(f"hub: needs no empty rows and a column above 5% of rows, got {stats}")
    return n, columns


def matrix_stats(rows: int, columns: Columns) -> Dict[str, int]:
    """Shape facts recorded with every result."""
    degree = [0] * rows
    for pins in columns:
        for r in pins:
            degree[r] += 1
    return {
        "rows": rows,
        "cols": len(columns),
        "pins": sum(len(pins) for pins in columns),
        "empty_rows": degree.count(0),
        "max_col_size": max((len(pins) for pins in columns), default=0),
        "min_col_size": min((len(pins) for pins in columns), default=0),
        "max_row_degree": max(degree, default=0),
        "min_row_degree": min(degree, default=0),
    }


def write_mtx(path: str, rows: int, columns: Columns) -> None:
    """Write the pattern in Matrix Market coordinate format, row-major."""
    entries = sorted((r, c) for c, pins in enumerate(columns) for r in pins)
    with open(path, "w", encoding="utf-8") as f:
        f.write("%%MatrixMarket matrix coordinate pattern general\n")
        f.write(f"{rows} {len(columns)} {len(entries)}\n")
        f.writelines(f"{r + 1} {c + 1}\n" for r, c in entries)


@dataclass(frozen=True)
class Workload:
    """One workload: its generator, the CLI flags and why it exists."""

    name: str
    generate: Callable[[int], Tuple[int, Columns]]
    k: int
    runs: int
    edge_weights: str
    why: str

    def cli_args(self) -> List[str]:
        return ["--k", str(self.k), "--epsilon", "0.02", "--seed", "1",
                "--runs", str(self.runs), "--edge-weights", self.edge_weights]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("band-k32", lambda seed: band(seed, 2000), k=32, runs=1,
             edge_weights="unit",
             why="banded smoke family with empty rows at k=32: 31 bisections, each with "
                 "its own initial partitioning, FM and induction; isolated rows stall coarsening"),
    Workload("rect-k2-r3", lambda seed: rect(seed, 700, 3500), k=2, runs=3,
             edge_weights="unit",
             why="700x3500, 5 rows per column so vertex degree ~25, k=2 over 3 seeds: "
                 "clustering and its CC seed are the largest coarsening cost, redone per seed"),
    Workload("hub-k4-size", lambda seed: hub(seed, 2000), k=4, runs=1,
             edge_weights="size",
             why="power-law columns plus dense columns of 8% of rows, size weights, k=4: "
                 "wide gain ranges make FM dominate; large nets load matching"),
)}
