"""Run the hypart CLI once with every layer boundary recorded as a span.

Usage: python traced_cli.py SPANS_JSON CLI_ARG...

Installs the span recorder, calls ``hypart.cli.main`` with the given
arguments, writes the spans to SPANS_JSON and exits with the CLI's code.
``hypart`` must be importable (PYTHONPATH pointing at the source tree).
"""

import sys

import hypart.cli

from spans import Recorder


def main() -> int:
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    code = hypart.cli.main(cli_args)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
