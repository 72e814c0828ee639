"""Run ``repro serve`` (``repro.cli.main``) for the benchmark, optionally traced.

Usage: ``python3 perfbench/server.py [--spans-out=FILE] serve ARGS...``.
With ``--spans-out`` the layer tracer is installed before the server
starts and its spans are written to FILE when the server exits (SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list) -> int:
    """Serve until interrupted; dump spans afterwards when asked to."""
    from repro.cli import main as repro_main
    from spans import Tracer

    spans_out = None
    if argv and argv[0].startswith("--spans-out="):
        spans_out = argv.pop(0).split("=", 1)[1]
    tracer = Tracer().install() if spans_out else None
    try:
        return repro_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
