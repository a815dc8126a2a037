"""Command line front end: ingest a sparse matrix, partition, report.

Reads a Matrix Market file as a column-net hypergraph, runs one or more
seeded partitioning repetitions, writes the best run's partition (one
part id per line) and a JSON stats document with the per-phase wall
times, the final cost and imbalance, the per-run summary and the best
run's bisection records.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error
(I/O failures, malformed or undecodable input, infeasible balance).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .driver import PHASE_KEYS, PartitionConfig, run_many
from .io import (MatrixFormatError, read_matrix_market, write_partition,
                 WEIGHT_SCHEMES)
from .model import InfeasibleBalanceError


class _ArgumentParser(argparse.ArgumentParser):
    """argparse variant that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hypart",
        description="Multilevel hypergraph partitioner for sparse matrices "
                    "(column-net model: rows are vertices, columns are hyperedges).")
    parser.add_argument("--input", required=True, help="Matrix Market file to partition")
    parser.add_argument("--k", type=int, default=2, help="number of parts (default 2)")
    parser.add_argument("--epsilon", type=float, default=0.02,
                        help="imbalance tolerance (default 0.02)")
    parser.add_argument("--seed", type=int, default=1, help="random seed (default 1)")
    parser.add_argument("--runs", type=int, default=1,
                        help="independent repetitions, seeds seed..seed+runs-1 (default 1)")
    parser.add_argument("--edge-weights", choices=WEIGHT_SCHEMES, default="unit",
                        help="hyperedge weights: unit, or size = pin count (default unit)")
    parser.add_argument("--out", default=None,
                        help="partition output path (default <input>.part)")
    parser.add_argument("--stats", default=None,
                        help="stats JSON output path (default <input>.stats.json)")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = PartitionConfig(k=args.k, epsilon=args.epsilon, seed=args.seed, runs=args.runs)
    try:
        cfg.validate()
    except ValueError as exc:
        parser.error(str(exc))

    out_path = args.out if args.out is not None else args.input + ".part"
    stats_path = args.stats if args.stats is not None else args.input + ".stats.json"

    ingest_stats: dict = {}
    read_start = time.perf_counter()
    try:
        with open(args.input, "r", encoding="utf-8") as f:
            h = read_matrix_market(f, scheme=args.edge_weights, stats=ingest_stats)
    except OSError as exc:
        print(f"hypart: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    except (MatrixFormatError, UnicodeDecodeError) as exc:
        print(f"hypart: {args.input}: {exc}", file=sys.stderr)
        return 2
    read_seconds = time.perf_counter() - read_start

    try:
        summary = run_many(h, cfg)
    except (InfeasibleBalanceError, ValueError) as exc:
        print(f"hypart: {exc}", file=sys.stderr)
        return 2

    best = summary["best_stats"]
    document = {key: best.phases[key] for key in PHASE_KEYS}
    document["overall"] += read_seconds
    document["build"] += read_seconds
    document["cost"] = best.cost
    document["imbalance"] = best.imbalance
    document["mean_cost"] = summary["mean_cost"]
    document["std_dev_percent"] = summary["std_dev_percent"]
    document["runs"] = [
        {"seed": stats.seed, "cost": stats.cost, "imbalance": stats.imbalance}
        for stats in summary["runs"]
    ]
    document["bisections"] = best.bisections

    try:
        with open(out_path, "w", encoding="utf-8") as f:
            write_partition(summary["best_partition"], f)
        with open(stats_path, "w", encoding="utf-8") as f:
            json.dump(document, f, indent=2)
            f.write("\n")
    except OSError as exc:
        print(f"hypart: cannot write output: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        dropped = ingest_stats.get("dropped_empty_columns", 0)
        note = f" (dropped {dropped} empty columns)" if dropped else ""
        print(f"k={args.k} cost={best.cost} imbalance={best.imbalance:.4f} "
              f"runs={args.runs} mean={summary['mean_cost']:.1f} "
              f"std%={summary['std_dev_percent']:.1f}{note}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
