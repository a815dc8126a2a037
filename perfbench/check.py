"""Independent check of the files one CLI run writes.

Everything is recomputed from the generated matrix with this module's
own code; nothing here calls into hypart. The cut is the
connectivity-minus-one cost, with hyperedge weight 1 (``unit``) or the
column's pin count (``size``); vertex weights are 1, so the imbalance is
the largest relative deviation of a part size from n / k.
"""

from __future__ import annotations

import json
from typing import List, Sequence, Tuple


class CheckError(Exception):
    """An output file violates the CLI's contract."""


def cut_cost(columns: List[List[int]], parts: Sequence[int], size_weights: bool) -> int:
    cut = 0
    for pins in columns:
        if pins:
            cut += (len(pins) if size_weights else 1) * (len({parts[r] for r in pins}) - 1)
    return cut


def check_outputs(partition_text: str, stats_text: str, rows: int,
                  columns: List[List[int]], size_weights: bool, k: int,
                  epsilon: float, phase_keys: Sequence[str]) -> Tuple[int, float]:
    """Validate a partition file and stats document; return (cut, imbalance)."""
    if not partition_text.endswith("\n"):
        raise CheckError("partition file does not end with a newline")
    lines = partition_text[:-1].split("\n")
    if len(lines) != rows:
        raise CheckError(f"partition has {len(lines)} lines, expected {rows}")
    try:
        parts = [int(line) for line in lines]
    except ValueError as exc:
        raise CheckError(f"partition line is not an integer: {exc}") from None
    sizes = [0] * k
    for part in parts:
        if not 0 <= part < k:
            raise CheckError(f"part id {part} outside [0, {k})")
        sizes[part] += 1
    if min(sizes) == 0:
        raise CheckError(f"part {sizes.index(0)} is empty")
    avg = rows / k
    imbalance = max(abs(size - avg) for size in sizes) / avg
    if imbalance > epsilon + 1e-9:
        raise CheckError(f"imbalance {imbalance:.5f} exceeds {epsilon}")
    cut = cut_cost(columns, parts, size_weights)

    try:
        stats = json.loads(stats_text)
    except ValueError as exc:
        raise CheckError(f"stats document is not JSON: {exc}") from None
    if not isinstance(stats, dict):
        raise CheckError("stats document is not a JSON object")
    missing = [key for key in phase_keys if key not in stats]
    if missing:
        raise CheckError(f"stats document lacks phase keys {missing}")
    if stats.get("cost") != cut:
        raise CheckError(f"stats cost {stats.get('cost')} differs from recomputed cut {cut}")
    return cut, imbalance


def corruptions(partition_text: str, stats_text: str, k: int, phase_keys: Sequence[str]):
    """Deliberately broken copies of a valid (partition, stats) pair.

    Each must be rejected by :func:`check_outputs`; they show the
    checker is live. Yields (label, partition_text, stats_text).
    """
    lines = partition_text.splitlines()
    yield "missing line", "\n".join(lines[:-1]) + "\n", stats_text
    yield "part id out of range", "\n".join([str(k)] + lines[1:]) + "\n", stats_text
    yield "empty part", "0\n" * len(lines), stats_text
    stats = json.loads(stats_text)
    yield "wrong cost", partition_text, json.dumps(dict(stats, cost=stats["cost"] + 1))
    missing = dict(stats)
    missing.pop(phase_keys[0])
    yield "missing phase key", partition_text, json.dumps(missing)
