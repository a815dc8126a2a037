"""Golden partitions of the benchmark corpus.

Builds the three benchmark workloads from ``perfbench/workloads.py``
(workload seed 1), runs the command line on each with the workload's
settings (it calls :func:`~hypart.driver.run_many`) and compares the
sha256 of the partition file and the reported cost with the values
recorded for them. A change meant to preserve behaviour checks the
whole corpus with ``python -m pytest tests/test_corpus.py``; the three
cases take about ten seconds together.
"""

import hashlib
import json

import pytest

from hypart.cli import main

from conftest import load_workloads

# sha256 of the partition file and the cut of each workload at seed 1.
GOLDEN = {
    "band-k32": ("62fd69f94c923b165a3b5c5c92c7d6ac4c2c2d2aab31b853b4880645274a10b4", 1888),
    "rect-k2-r3": ("210a3776675d60aa68d304a11ef2284185f56673c69e425b87e79173a53cd1f7", 2813),
    "hub-k4-size": ("6f509e38519f8c0ffefd244cfc5a65164dbad9f05c069d4aafc21d7d69b4487f", 13875),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_workload_partition_digest(name, tmp_path):
    workloads = load_workloads()
    wl = workloads.WORKLOADS[name]
    rows, columns = wl.generate(1)
    mtx, out, stats = (tmp_path / f for f in ("matrix.mtx", "matrix.part", "stats.json"))
    workloads.write_mtx(str(mtx), rows, columns)
    code = main(["--input", str(mtx)] + wl.cli_args()
                + ["--out", str(out), "--stats", str(stats), "--quiet"])
    assert code == 0
    digest, cut = GOLDEN[name]
    assert json.loads(stats.read_text(encoding="utf-8"))["cost"] == cut
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
