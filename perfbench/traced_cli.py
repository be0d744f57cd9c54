"""Run one ``aprng`` CLI command with every package call recorded as a span.

Usage: python perfbench/traced_cli.py SPANS_FILE WORKLOAD REQUEST -- <aprng args>

The command's output is untouched; the spans go to SPANS_FILE as JSON when
the command ends.
"""
from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, instrument  # noqa: E402


def main(argv: list[str]) -> int:
    spans_file, workload, request, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE WORKLOAD REQUEST -- ARGS")
    tracer = Tracer(workload, int(request))
    with tracer.span("cli.import"):
        import aprng.cli
    instrument(tracer)
    try:
        code = aprng.cli.main(cli_args)     # recorded as the cli.main span
        sys.stdout.flush()
    finally:
        with open(spans_file, "w") as f:
            json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
