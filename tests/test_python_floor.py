"""The package's source parses at the Python floor that pyproject.toml
declares.

``ast.parse`` with ``feature_version`` set to the floor rejects syntax
added after it, such as ``except*`` groups from 3.11. The check catches
newer syntax only: a call to a library function or module added after
the floor still parses, and only running the suite under the floor's
interpreter finds it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_the_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject).groups()
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=tuple(map(int, floor)))
