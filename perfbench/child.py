"""Traced stand-in for `python -m entsum.cli`, used by the traced cli run.

Usage: python child.py STATS_JSON CLI_ARG...

Imports the CLI, binds the tracer, runs `entsum.cli.main` on the arguments,
writes the per-function stats and work counts to STATS_JSON and exits with the
CLI's exit code.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import entsum.cli  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer(log_cap=0)
    tracing.install(tracer).on()
    tracer.enabled = True
    try:
        code = entsum.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.dump(stats_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
