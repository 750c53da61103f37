"""Smoke test of the benchmark at its minimum length.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload for one second, untraced and traced, and checks
that the outputs match the references and that every metric named in
``BENCHMARK.json`` is printed, by name and with its unit, both in the
readable report and in the final JSON line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    for name, unit in declared.items():
        assert printed.get(name) == unit, name
    assert printed.get("fail_ratio") == "ratio"
