"""Smoke tests of the benchmark: every workload at tiny sizes, in both modes,
emits exactly the metrics BENCHMARK.json names, with their units.

    python3 -m pytest bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _results(stdout):
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric(trace, section):
    proc = _run(ROOT, "--workload", "all", "--smoke", "--seconds", "1",
                "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    results = _results(proc.stdout)
    assert len(results) == len(SPEC["workloads"])
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] <= result["attempted"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert proc.stdout.count("machine: ") == len(SPEC["workloads"])


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not _results(proc.stdout)
