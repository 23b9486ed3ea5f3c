"""Run the lrdkendall command line with the tracer installed.

Usage: python cli_traced.py SPANS_PATH [lrdkendall arguments...]

Behaves like ``python -m lrdkendall.cli`` (same output, same exit code)
and writes the spans of the call to SPANS_PATH as JSON lines.
"""

import sys

from tracer import Tracer, dump

import lrdkendall.cli as cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        dump(tracer.spans, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
