"""Run the benchmark over several seeds and summarise the spread.

Usage:
    python3 perfbench/sweep.py --workload NAME --seeds 1-10 [--seconds 30]
                               [--trace 0|1] [--json OUT.json]

Runs ``run.py`` once per seed, one after another, and prints for every
metric the median, the quartiles of the per-seed values (Python's
``statistics.quantiles(values, n=4)``) and their spread, the distance
between the quartiles as a share of the median. ``--json`` also writes
every per-seed result and the summary, for recording a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None,
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", default=str(json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]))
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--json", help="write per-seed results and the summary here")
    args = parser.parse_args()

    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["report"] = lines[:-1]
        results.append(result)
        values = "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                           if args.trace == "0")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {values}", flush=True)

    summary = summarise(results)
    print(f"{'metric':<29}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}  unit")
    for name, s in summary.items():
        spread = f"{100 * s['spread']:.1f}%" if s["spread"] is not None else "n/a"
        print(f"{name:<29}{s['median']:>12.6g}{s['q1']:>12.6g}{s['q3']:>12.6g}{spread:>9}  "
              f"{s['unit']}")
    walls = sorted(float(x) for r in results for line in r["report"]
                   if line.startswith("samples wall_s ") for x in line.split()[2:])
    if len(walls) > 10:
        summary["wall_s_tail"] = {"percentile": 100.0 * (len(walls) - 10) / len(walls),
                                  "value": walls[-11], "samples": len(walls), "unit": "s"}
        print(f"wall_s pooled over seeds: median {statistics.median(walls):.6g} s, "
              f"p{summary['wall_s_tail']['percentile']:.0f} {walls[-11]:.6g} s, "
              f"{len(walls)} samples")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": float(args.seconds), "trace": int(args.trace),
             "results": results, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
