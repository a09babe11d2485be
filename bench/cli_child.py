"""Run one vicsek-sandpile command in this fresh interpreter, with spans.

Usage: python3 bench/cli_child.py SPANS_JSON ARG...

Imports the command-line module, wraps the library's public functions,
calls `cli.main(ARG...)` and writes the spans to SPANS_JSON, the import
among them as a span named `cli.import`.  Exits with the command's exit
code.  Expects the library's `src` directory on PYTHONPATH, as the untraced
`python -m vicsek_sandpile.cli` does.
"""

import json
import sys
import time

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import vicsek_sandpile.cli as cli

    tracer = spans.Tracer()
    tracer.spans.append(spans.Span("cli.import", start, time.perf_counter(), None, -1))
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
