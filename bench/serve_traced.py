"""``repro serve`` with the serve layer wrappers installed.

Usage: ``python bench/serve_traced.py --spans PATH -- <repro serve args>``.
Spans stay in memory while the server runs and are written to PATH as
JSON once it has shut down (SIGTERM drains it cleanly).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] \
        else args.serve_args

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.serve.server  # noqa: F401  (binds the names to wrap)
    from repro.cli import main as repro_main

    import layers
    from tracing import Tracer

    tracer = Tracer(layers.serve_targets())
    tracer.install()
    try:
        code = repro_main(["serve"] + serve_args)
    finally:
        tracer.uninstall()
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
