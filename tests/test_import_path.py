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
suites.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


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


def test_cli_partitions_without_numpy(tmp_path):
    # A ring of 16 rows: column j holds rows j and j+1 (mod 16).
    n = 16
    entries = [(j, j) for j in range(n)] + [((j + 1) % n, j) for j in range(n)]
    matrix = tmp_path / "ring.mtx"
    matrix.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n"
        f"{n} {n} {len(entries)}\n"
        + "".join(f"{r + 1} {c + 1}\n" for r, c in entries))
    out = tmp_path / "ring.part"
    argv = ["--input", str(matrix), "--k", "4", "--runs", "2", "--quiet",
            "--out", str(out), "--stats", str(tmp_path / "ring.stats.json")]
    # A None entry in sys.modules makes every numpy import raise.
    code = run_fresh(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from hypart.cli import main\n"
        f"print(main({argv!r}))\n")
    assert code == "0"
    assert sorted(set(map(int, out.read_text().split()))) == [0, 1, 2, 3]


def test_dense_path_loads_on_first_dense_level():
    # The bit-parallel FM module costs start-up only for inputs that
    # reach a dense level: a path does not, the 20 triples of 6 vertices
    # (60 pins >= 6 * 6) do.
    out = run_fresh(
        "import sys, itertools\n"
        "import hypart.cli\n"
        "from hypart import Hypergraph, PartitionConfig, bipartition\n"
        "loaded = ['hypart.dense' in sys.modules]\n"
        "bipartition(Hypergraph(8, [[i, i + 1] for i in range(7)]), PartitionConfig(epsilon=0.3))\n"
        "loaded.append('hypart.dense' in sys.modules)\n"
        "pins = list(itertools.combinations(range(6), 3))\n"
        "bipartition(Hypergraph(6, pins), PartitionConfig(epsilon=0.3))\n"
        "loaded.append('hypart.dense' in sys.modules)\n"
        "print(loaded)\n")
    assert out == "[False, False, True]"
