"""Traced stand-in for ``python -m graphmine.cli``.

Usage: ``python cli_boot.py TRACE_FILE <graphmine arguments>``.  Times
``import graphmine.cli`` in this fresh interpreter, installs the tracing
wrappers, calls ``graphmine.cli.main`` with the arguments, and writes the
import time, spans and counts to TRACE_FILE as JSON.  The exit code is
``main``'s, so the command behaves as the real one does.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import graphmine.cli

    import_s = perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = graphmine.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
