"""Run one wishmom CLI request with the span tracer installed.

Usage: python bench/traced_cli.py SPAN_FILE [wishmom arguments ...]

Behaves like `python -m wishmom.cli [arguments ...]` (PYTHONPATH must reach
the library) and writes the request's spans to SPAN_FILE when it ends.
"""

import sys
from time import perf_counter

import spans


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    start = perf_counter()
    import wishmom.cli
    tracer.record("import.wishmom_cli", start, perf_counter())
    uninstall = spans.install(tracer)
    try:
        return wishmom.cli.main(argv)
    except SystemExit as exc:  # argparse rejects a request by exiting
        return exc.code
    finally:
        uninstall()
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main())
