"""Each demo script runs to completion against the package in src/, and the
CLI sweep of the benchmark config and the CLI point of the example config
reproduce their recorded CSV bytes."""
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of `cli point --config demos/config.example.json` at its own seed.
POINT_CSV_SHA256 = "6a5361ed53d7d3f507bf69de0e2f658ddcab02a001febf5c12f6f4ac260f4a70"


def package_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=package_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_csv_bytes_match_recorded_digests(tmp_path, workers):
    # The config names its outputs by relative paths, so the run writes into tmp_path.
    shutil.copyfile(ROOT / "perfbench" / "sweep_config.json", tmp_path / "config.json")
    proc = subprocess.run(
        [sys.executable, "-m", "swipt_relay.cli", "sweep", "--config", "config.json",
         "--seed", "12345", "--workers", str(workers)],
        cwd=tmp_path, env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["sweep_cli"]
    assert {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected
    } == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_point_csv_bytes_match_recorded_digest(tmp_path, workers):
    shutil.copyfile(ROOT / "demos" / "config.example.json", tmp_path / "config.json")
    proc = subprocess.run(
        [sys.executable, "-m", "swipt_relay.cli", "point", "--config", "config.json",
         "--out", "point.csv", "--workers", str(workers)],
        cwd=tmp_path, env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256((tmp_path / "point.csv").read_bytes()).hexdigest() == POINT_CSV_SHA256
