#!/usr/bin/env python3
"""The repo's benchmark: one workload per user path, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 10 --trace 0

Workloads: ``paper-batch``, ``sharded-stream``, ``delta-query`` and
``http-mixed`` (see ``perfbench/README.md``).  Inputs come from ``--seed``
alone.  Every metric is printed as ``<workload>: <name> = <value> <unit>``;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
ones (from a traced pass) with ``--trace 1``.  ``--smoke`` runs at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Metrics reported by every workload with ``--trace 0``.
END_TO_END = ("setup_s", "peak_rss_mb", "publish_p50_ms", "records_per_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-batch", "sharded-stream", "delta-query", "http-mixed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured operation time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (for the smoke test)")
    return parser.parse_args(argv)


def fingerprint(args, inputs: dict) -> dict:
    """Host and configuration of this run."""
    import numpy

    from repro import __version__
    from repro.core import kernels

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "inputs": inputs,
        "nproc": os.cpu_count(), "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "kernels": kernels.resolve(None), "repro": __version__,
        "config": {"k": 5, "m": 2, "max_cluster_size": 30, "jobs": 1},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.Sizes()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Temporary files (the streaming spill, the server's) stay in the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), sizes, workdir)
        outcome.end_to_end.setdefault("peak_rss_mb", (workloads.peak_rss_mb(), "MB"))
        host = fingerprint(args, outcome.inputs)
        if args.trace:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            stem = out / f"spans-{args.workload}-seed{args.seed}"
            outcome.tracer.dump(f"{stem}.json", {"fingerprint": host})
            if outcome.server_spans is not None:
                shutil.copyfile(outcome.server_spans, f"{stem}-server.json")
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_ratio = outcome.failed / max(outcome.attempted, 1)
    outcome.metric("fail_ratio", fail_ratio, "ratio", f"{outcome.failed} of {outcome.attempted}")
    outcome.metric("peak_rss_mb", outcome.end_to_end["peak_rss_mb"][0], "MB")
    for name, value, unit, note in outcome.readable:
        print(f"{args.workload}: {name} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
    for name, (value, unit) in sorted(outcome.per_layer.items()):
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    for problem in outcome.problems:
        print(f"{args.workload}: check failed: {problem}")
    print(f"fingerprint: {json.dumps(host, sort_keys=True)}")
    chosen = outcome.per_layer if args.trace else {
        name: outcome.end_to_end[name] for name in END_TO_END}
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
