"""The partitioner's import path stays free of numpy and of slow
standard-library modules.

The package needs only the standard library: numpy backs only the
exhaustive reference bipartitioner of the tests, so importing the
package or its command line must not load it, and the command line must
partition a matrix where numpy cannot be imported. The command line pays
its import time on every call, so its records are NamedTuples rather
than dataclasses (which load ``inspect``) and its run summary uses
``math`` rather than ``statistics`` (which loads ``decimal`` and
``fractions``). Every name that ``__all__`` lists must resolve under
``from hypart import *``. Each check runs in a fresh interpreter, because
the test process itself has long imported these modules through other
suites. The fresh interpreter imports the same ``hypart`` as the test
process, from whichever tree ``PYTHONPATH`` or an install put first.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hypart

TESTS = Path(__file__).resolve().parent
SRC = Path(hypart.__file__).resolve().parents[1]


def run_fresh(code):
    env = dict(os.environ)
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)] + inherited)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("module", ["hypart", "hypart.cli"])
def test_import_leaves_numpy_unloaded(module):
    out = run_fresh(f"import sys, {module}; print('numpy' in sys.modules)")
    assert out == "False"


def test_star_import_resolves_every_public_name():
    # A name left in __all__ after its definition is removed breaks
    # ``from hypart import *`` for every user.
    out = run_fresh(
        "import hypart\n"
        "names = {}\n"
        "exec('from hypart import *', names)\n"
        "print(sorted(set(hypart.__all__) - set(names)))\n")
    assert out == "[]"


def test_cli_import_leaves_slow_stdlib_modules_unloaded():
    # Only what the import itself adds counts, not what the interpreter's
    # site start-up may have loaded before it.
    out = run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hypart.cli\n"
        "slow = ('dataclasses', 'inspect', 'statistics', 'decimal', 'fractions')\n"
        "print(sorted(m for m in slow if m in sys.modules and m not in before))\n")
    assert out == "[]"


def test_oracle_loads_numpy_on_first_call():
    out = run_fresh(
        "import sys\n"
        "from reference import brute_force_bipartition\n"
        "from conftest import make_path4\n"
        "before = 'numpy' in sys.modules\n"
        "result = brute_force_bipartition(make_path4(), 0.1)\n"
        "print(before, 'numpy' in sys.modules, result.best_cost)\n")
    assert out == "False True 1"


def ring(n):
    """Column j holds rows j and j+1 (mod n)."""
    return [(j, j) for j in range(n)] + [((j + 1) % n, j) for j in range(n)]


def chain(n):
    """The ring, plus row j+2 (mod n) in every third column."""
    return ring(n) + [((j + 2) % n, j) for j in range(0, n, 3)]


# Each case names its matrix, its extra flags and the bounds on every
# part's row count. The rings are below the coarsest size, so nothing
# coarsens them; at k = 4 the 8-row ring drives recursion and induction,
# and each quarter gets the width-0 window [2, 2]. The 400-row chain with
# size weights runs clustering (the pruned walk), cores, matching and
# contraction.
@pytest.mark.parametrize("entries, k, flags, lo, hi", [
    (ring(16), 4, ["--runs", "2"], 1, 16),
    (ring(8), 2, [], 1, 8),
    (ring(8), 4, [], 2, 2),
    (chain(400), 4, ["--edge-weights", "size"], 98, 102),
], ids=["ring16-k4-runs2", "ring8-k2", "ring8-k4", "chain400-k4-size"])
def test_cli_partitions_without_numpy(tmp_path, entries, k, flags, lo, hi):
    n = max(c for _, c in entries) + 1
    matrix = tmp_path / "matrix.mtx"
    matrix.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n"
        f"{n} {n} {len(entries)}\n"
        + "".join(f"{r + 1} {c + 1}\n" for r, c in entries))
    out, stats = tmp_path / "matrix.part", tmp_path / "matrix.stats.json"
    argv = ["--input", str(matrix), "--k", str(k), "--quiet", "--out", str(out),
            "--stats", str(stats)] + flags
    # A None entry in sys.modules makes every numpy import raise.
    code = run_fresh(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from hypart.cli import main\n"
        f"print(main({argv!r}))\n")
    assert code == "0"
    sizes = Counter(map(int, out.read_text().split()))
    assert sorted(sizes) == list(range(k))
    assert all(lo <= size <= hi for size in sizes.values()), sizes
    # Each bisection record's cost is the cut FM returned; a restricted
    # net is cut once per bisection it spans, so the k - 1 records sum to
    # the final connectivity-minus-one recount.
    document = json.loads(stats.read_text())
    cuts = [b["cost"] for b in document["bisections"]]
    assert len(cuts) == k - 1
    assert sum(cuts) == document["cost"]


def test_dense_path_loads_on_first_dense_level():
    # The bit-parallel FM module costs start-up only for inputs that
    # reach a dense level: a path does not, the 20 triples of 6 vertices
    # (60 pins >= 6 * 6) do.
    out = run_fresh(
        "import sys, itertools\n"
        "import hypart.cli\n"
        "from hypart import Hypergraph, PartitionConfig, partition_kway\n"
        "loaded = ['hypart.dense' in sys.modules]\n"
        "partition_kway(Hypergraph(8, [[i, i + 1] for i in range(7)]), PartitionConfig(epsilon=0.3))\n"
        "loaded.append('hypart.dense' in sys.modules)\n"
        "pins = list(itertools.combinations(range(6), 3))\n"
        "partition_kway(Hypergraph(6, pins), PartitionConfig(epsilon=0.3))\n"
        "loaded.append('hypart.dense' in sys.modules)\n"
        "print(loaded)\n")
    assert out == "[False, False, True]"
