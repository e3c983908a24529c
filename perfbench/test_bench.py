"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_bench.py

For every workload named in BENCHMARK.json it runs ``run.py --tiny`` untraced
and traced, and checks that each named metric is emitted with its unit, that
no check failed, and that both runs report the same output digest.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds",
                "0.2", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines
                  if line.startswith("# digest"))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_checks_pass(workload):
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, digest = _result(workload, trace)
        digests.append(digest)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in SPEC[key]}
        if key == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
