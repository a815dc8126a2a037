"""Set-up probe: interpreter start, ``import hypart`` and ingestion only.

Usage: python setup_probe.py MATRIX_MTX WEIGHT_SCHEME

Reads the matrix the way the CLI does and prints the monotonic clock
reading taken once the hypergraph is in memory, followed by its pin
count. The parent subtracts its own clock reading at spawn time; on
Linux ``time.perf_counter`` is CLOCK_MONOTONIC, shared by all processes.
"""

import sys
import time

from hypart.cli import read_matrix_market


def main() -> None:
    path, scheme = sys.argv[1], sys.argv[2]
    with open(path, "r", encoding="utf-8") as f:
        h = read_matrix_market(f, scheme=scheme)
    ready = time.perf_counter()
    print(repr(ready), h.num_pins())


if __name__ == "__main__":
    main()
