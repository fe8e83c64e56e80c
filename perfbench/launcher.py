"""Start the provenance service exactly as ``yprov --root ROOT serve`` does.

Usage: ``python3 perfbench/launcher.py --root DIR [--spans FILE]``.  The
service listens on an ephemeral port and prints its URL; SIGINT stops it.
With ``--spans`` the layer wrappers of ``spans.py`` are installed first
and the recorded spans, plus the service's final node/document counts,
are written to FILE as JSON when the service stops.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.yprov.cli import main as yprov_main  # noqa: E402

import spans  # noqa: E402


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    cli = ["--root", args.root, "serve", "--host", "127.0.0.1", "--port", "0"]
    if args.spans is None:
        return yprov_main(cli)
    tracer, services = spans.Tracer(), []
    spans.install_server(tracer, services)
    try:
        return yprov_main(cli)
    finally:
        tracer.active = False
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans,
                       "service": services[-1].stats() if services else {}}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
