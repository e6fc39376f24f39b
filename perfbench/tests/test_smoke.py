"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests

Runs every workload untraced and traced at ``--size smoke`` (2 corpus
instances, refine instances with n=3 and m=6, ``gen_xos_hard(16, 2)``) and
checks that every output check passes and that every metric prints with its
unit, both in the table and in the final JSON line.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = ("certify", "refine", "xos_hard")


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, cwd=cwd, timeout=300
    )


def expected_units(trace):
    return run.PER_LAYER if trace else run.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_and_passes_every_check(workload, trace, tmp_path):
    proc = bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
        "--size", "smoke", "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = expected_units(trace)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    text = "\n".join(table)
    for name, unit in units.items():
        assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}\b", text, re.M), name
    assert re.search(r"^fail_frac 0 ratio", text, re.M)
    assert '"backend": ' in text
    if trace and workload != "certify":
        simplex = {k: m["value"] for k, m in result["metrics"].items() if k.startswith("simplex.")}
        assert not any(simplex.values()), simplex


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == expected_units(0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == expected_units(1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(
        "--workload", "refine", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
