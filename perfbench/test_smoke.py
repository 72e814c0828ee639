"""Smoke test of the benchmark at tiny sizes.

Every workload runs once untraced and once traced through ``run.py
--smoke``; each must print every metric it promises with its unit, report
no failed operation or check, and end with the JSON result line carrying
exactly the metrics ``BENCHMARK.json`` declares.  Without the repo's
sources the benchmark must refuse to run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LINE = re.compile(r"^(?P<workload>[\w-]+): (?P<name>[\w.]+) = (?P<value>\S+) (?P<unit>\S+)")

#: The readable end-to-end metrics each workload prints, with their units.
PUBLISH = {"publish_p50_s": "s", "records_per_s": "records/s"}
COMMON = {"setup_s": "s", "fail_ratio": "ratio", "peak_rss_mb": "MB"}
QUERIES = {"query_p50_ms": "ms", "query_tail_ms": "ms"}
READABLE = {
    "paper-batch": {**COMMON, **PUBLISH},
    "sharded-stream": {**COMMON, **PUBLISH},
    "delta-query": {**COMMON, **QUERIES, "delta_p50_s": "s"},
    "http-mixed": {**COMMON, **QUERIES, "anonymize_p50_ms": "ms", "anonymize_tail_ms": "ms",
                   "requests_per_s": "requests/s"},
}


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    printed = {m["name"]: (float(m["value"]), m["unit"])
               for m in map(LINE.match, lines[:-1]) if m and m["workload"] == workload}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = dict(READABLE[workload])
    if trace:
        expected.update({m["name"]: m["unit"] for m in declared})
    for name, unit in expected.items():
        assert name in printed, f"{workload} does not print {name}"
        assert printed[name][1] == unit, f"{name} printed in {printed[name][1]}, not {unit}"
    assert printed["fail_ratio"][0] == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "paper-batch", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
