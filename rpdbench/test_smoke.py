"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root with ``python3 -m pytest rpdbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_every_workload_and_traced_run_in_smoke_mode():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seed", "3", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _last_json(proc.stdout)
    assert result["correct"], proc.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            got = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert got["unit"] == metric["unit"], metric["name"]
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            assert result["metrics"][f"{workload['name']}/{metric['name']}"]["value"] > 0


def test_a_wrong_output_fails_its_check(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import rpd.cli
        from reference import CheckFailed
        from workloads import SIZES, CompareFiles
    finally:
        del sys.path[:2]
    workload = CompareFiles(rpd, 5, tmp_path, SIZES["smoke"]["compare-files"])
    workload.prepare()
    left, right, text = workload.capture("pair", 0, workload.run_job("pair", 0))
    workload.verify("pair", (left, right, text))
    payload = json.loads(text)
    payload["rpd"] *= 1 + 1e-7
    with pytest.raises(CheckFailed):
        workload.verify("pair", (left, right, json.dumps(payload)))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "compare-files",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
