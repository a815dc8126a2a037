"""hypart benchmark: seeded synthetic matrices through the real CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/hypart`` must exist). The
workload seed generates the input matrix; the partitioner only sees the
Matrix Market file. One parent process then runs ``python -m hypart.cli``
in a fresh child process, one at a time, for about ``--seconds``
seconds, checks every output independently (see check.py) and requires
all runs to write byte-identical partitions.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (child spawn to
exit of one CLI run), ``setup_s`` (child spawn until the hypergraph is in
memory, from setup_probe.py, median of several probes), ``peak_rss_mb``
(child peak RSS from wait4) and ``cut`` (recomputed from the matrix).
``--trace 1`` alternates untraced runs with runs under traced_cli.py and
reports the per-layer metrics of spans.py, the medians over the traced
runs, plus ``trace.overhead_s``. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from check import CheckError, check_outputs, corruptions
from spans import layer_metrics
from workloads import WORKLOADS, matrix_stats, write_mtx

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

EPSILON = 0.02
# Fewest set-up probes behind one setup_s median.
SETUP_PROBES = 7
# A CLI run that takes longer than this counts as failed, so a
# quadratic blow-up shows in the failure count instead of hanging.
CHILD_TIMEOUT_S = 60.0
# Every child is stopped by then, which keeps a run under 180 s.
HARD_LIMIT_S = 165.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cut": "pins"}
LAYER_UNITS = {
    "io.read_s": "s", "io.write_s": "s", "io.pins": "pins",
    "roughset.hcg_s": "s", "roughset.hcg_calls": "count", "roughset.hcg_pins": "pins",
    "roughset.hcg_repeat_s": "s", "roughset.cores_s": "s", "roughset.core_share": "ratio",
    "coarsen.threshold_s": "s", "coarsen.match_s": "s", "coarsen.matched_share": "ratio",
    "coarsen.contract_s": "s", "coarsen.levels": "count", "coarsen.vertex_ratio": "ratio",
    "coarsen.pin_ratio": "ratio", "coarsen.coarsest_vertices": "vertices",
    "initpart.s": "s", "initpart.candidates": "count", "initpart.balanced_share": "ratio",
    "refine.s": "s", "refine.fm_pass_s": "s", "refine.fm_passes": "count",
    "refine.improving_pass_share": "ratio", "refine.cut_reduction": "pins",
    "refine.project_s": "s", "driver.induce_s": "s", "driver.self_s": "s",
    "model.validate_s": "s", "model.cost_s": "s", "cli.self_s": "s", "cli.startup_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Child:
    start: float        # parent's perf_counter just before spawning
    wall_s: float
    rss_mb: float
    code: int
    timed_out: bool
    stdout: str
    stderr: str


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: List[str], timeout: float, log: Path) -> Child:
    """Run one child to completion, killing it after ``timeout`` seconds.

    Its standard output and error go to ``log`` with the suffixes .out
    and .err. Waiting uses a pidfd, so the exit is seen at once without
    polling, and the child is reaped with wait4 to read its own peak RSS.
    """
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
    killed = True   # stays set on a timeout or when this process is interrupted
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            killed = not select.select([pidfd], [], [], timeout)[0]
        finally:
            os.close(pidfd)
    finally:
        if killed:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Child(start, end - start, usage.ru_maxrss / 1024.0, proc.returncode, killed,
                 out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tail(values: List[float]) -> Optional[tuple]:
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def fmt(value: float) -> str:
    return f"{value:.6g}"


class SetupProbe:
    """Times child spawn until the hypergraph is in memory (setup_probe.py)."""

    def __init__(self, mtx: Path, scheme: str, pins: int, work: Path):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), str(mtx), scheme]
        self.pins = pins
        self.log = work / "setup"
        self.samples: List[float] = []

    def __call__(self, timeout: float) -> Optional[str]:
        """Take one sample; return a problem description if the probe failed."""
        child = spawn(self.argv, max(1.0, min(CHILD_TIMEOUT_S, timeout)), self.log)
        fields = child.stdout.split()
        if child.code != 0 or len(fields) != 2 or int(fields[1]) != self.pins:
            return (f"setup probe failed (exit {child.code}, output {child.stdout!r}): "
                    + child.stderr[-500:])
        self.samples.append(float(fields[0]) - child.start)
        return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running child is killed and
    # reaped and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    began = time.perf_counter()
    hard_deadline = began + HARD_LIMIT_S

    if not (SRC / "hypart" / "cli.py").is_file():
        print(f"run.py: no hypart source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hypart.driver import PHASE_KEYS

    wl = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(wl, args, work, PHASE_KEYS, began, hard_deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:   # another run still uses it
            pass


def run(wl, args, work: Path, phase_keys, began: float, hard_deadline: float) -> int:
    rows, columns = wl.generate(args.seed)
    shape = matrix_stats(rows, columns)
    mtx = work / "matrix.mtx"
    write_mtx(str(mtx), rows, columns)
    size_weights = wl.edge_weights == "size"
    problems: List[str] = []

    # The first probe also compiles the bytecode cache; it is not kept.
    # Later probes run between CLI runs, so their median spans the
    # whole measuring window rather than one burst.
    setup = SetupProbe(mtx, wl.edge_weights, shape["pins"], work)
    problem = setup(hard_deadline - time.perf_counter())
    if problem:
        print(problem, file=sys.stderr)
        return 1
    setup.samples.clear()

    cli_args = ["--input", str(mtx)] + wl.cli_args() + ["--quiet"]
    modes = (False, True) if args.trace else (False,)
    min_runs = 2 * len(modes)
    untraced: List[Child] = []
    traced: List[Child] = []
    layers: List[Dict[str, float]] = []
    reference = None   # (partition text, stats text) of the first good run
    cut = None
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        is_traced = modes[attempted % len(modes)]
        out, stats, spans_path = (work / f"run{attempted}{ext}"
                                  for ext in (".part", ".stats.json", ".spans.json"))
        entry = ([str(HERE / "traced_cli.py"), str(spans_path)] if is_traced
                 else ["-m", "hypart.cli"])
        argv = [sys.executable] + entry + cli_args + ["--out", str(out), "--stats", str(stats)]
        if not args.trace:
            problem = setup(hard_deadline - time.perf_counter())
            if problem:
                problems.append(problem)
                break
        timeout = min(CHILD_TIMEOUT_S, hard_deadline - time.perf_counter())
        child = spawn(argv, max(1.0, timeout), work / "cli")
        attempted += 1
        reason = None
        if child.timed_out:
            reason = f"timed out after {child.wall_s:.1f} s"
        elif child.code != 0:
            reason = f"exit {child.code}: " + child.stderr[-500:]
        else:
            texts = (out.read_text(encoding="utf-8"), stats.read_text(encoding="utf-8"))
            try:
                cut, _ = check_outputs(*texts, rows, columns, size_weights, wl.k, EPSILON,
                                       phase_keys)
            except CheckError as exc:
                reason = f"output check: {exc}"
            else:
                if reference is None:
                    reference = texts
                elif texts[0] != reference[0]:
                    reason = "partition differs from the first run's (nondeterminism)"
        if reason is not None:
            failed += 1
            problems.append(f"run {attempted - 1} ({'traced' if is_traced else 'untraced'}): "
                            + reason)
        elif is_traced:
            traced.append(child)
            with open(spans_path, encoding="utf-8") as f:
                layers.append(layer_metrics(json.load(f)["spans"], child.start))
        else:
            untraced.append(child)
        for path in (out, stats, spans_path):
            path.unlink(missing_ok=True)
        now = time.perf_counter()
        if child.timed_out or now >= hard_deadline - 1.0:
            break
        walls = [c.wall_s for c in untraced + traced] or [child.wall_s]
        if attempted >= min_runs and now + 0.5 * statistics.median(walls) >= deadline:
            break

    while not args.trace and not problems and len(setup.samples) < SETUP_PROBES:
        problem = setup(hard_deadline - time.perf_counter())
        if problem:
            problems.append(problem)

    if reference is not None:
        for label, partition_text, stats_text in corruptions(*reference, wl.k, phase_keys):
            try:
                check_outputs(partition_text, stats_text, rows, columns, size_weights,
                              wl.k, EPSILON, phase_keys)
            except CheckError:
                continue
            problems.append(f"checker accepted a corrupted output ({label})")

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"measured {time.perf_counter() - began:.1f} s in total")
    print("matrix  " + "  ".join(f"{key}={value}" for key, value in shape.items()))
    print("cli     " + " ".join(wl.cli_args()))
    print(f"runs    attempted={attempted} failed={failed} fail_rate={failed / attempted:.4g} ratio"
          f"  (untraced {len(untraced)}, traced {len(traced)})")
    for problem in problems:
        print(problem, file=sys.stderr)

    metrics: Dict[str, float] = {}
    walls = [c.wall_s for c in untraced]
    if args.trace == 0 and untraced:
        samples = {"wall_s": walls, "setup_s": setup.samples,
                   "peak_rss_mb": [c.rss_mb for c in untraced], "cut": [cut]}
        print(f"{'metric':<13}{'median':>12}{'p25':>12}{'p75':>12}  {'tail':<18}{'n':>4}  unit")
        for name, values in samples.items():
            metrics[name] = statistics.median(values)
            q1, _, q3 = quartiles(values)
            t = tail(values)
            t_text = f"p{t[0]:.0f}={fmt(t[1])}" if t else "n/a (n<11)"
            print(f"{name:<13}{fmt(metrics[name]):>12}{fmt(q1):>12}{fmt(q3):>12}  "
                  f"{t_text:<18}{len(values):>4}  {END_TO_END_UNITS[name]}")
        print(f"{'fail_rate':<13}{fmt(failed / attempted):>12}{'':>12}{'':>12}  {'':<18}"
              f"{attempted:>4}  ratio")
        print("samples wall_s " + " ".join(fmt(w) for w in walls))
        units = END_TO_END_UNITS
    elif args.trace == 1 and untraced and traced:
        for name in layers[0]:
            metrics[name] = statistics.median(m[name] for m in layers)
        traced_wall = statistics.median(c.wall_s for c in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        print(f"untraced wall_s median {fmt(statistics.median(walls))} s over {len(walls)} runs; "
              f"traced {fmt(traced_wall)} s over {len(traced)} runs")
        print(f"{'layer metric':<29}{'median':>12}  {'unit':<9}share of traced wall")
        for name, value in metrics.items():
            unit = LAYER_UNITS[name]
            share = f"{100.0 * value / traced_wall:5.1f}%" if unit == "s" else ""
            print(f"{name:<29}{fmt(value):>12}  {unit:<9}{share}")
        units = LAYER_UNITS
    else:
        units = {}
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
