"""Tests of the benchmark itself: the BENCHMARK.json contract, a smoke run of
every workload at its smallest size, and the refusal to run without the
program's sources."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent
CONFIG_PATH = ROOT / "BENCHMARK.json"
CONFIG = json.loads(CONFIG_PATH.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
# A full measurement makes 4 + 22 runs per workload and must fit in 3420 s.
RUNS_BUDGET_S = 3420


def test_benchmark_json_schema():
    assert CONFIG_PATH.stat().st_size <= 64 * 1024
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}

    paths = CONFIG["paths"]
    assert 1 <= len(paths) <= 16
    for p in paths:
        assert PATH.fullmatch(p) and not p.startswith("/") and ".." not in p.split("/")
        assert (ROOT / p).is_dir()
        assert not any(f.is_symlink() for f in (ROOT / p).rglob("*"))

    command = CONFIG["command"]
    assert 1 <= len(command) <= 32
    for arg in command:
        assert isinstance(arg, str) and len(arg) <= 200
        assert not arg.startswith("/") and ".." not in arg.split("/")
    for arg in command[1:]:
        if (ROOT / arg).exists():
            assert any(arg == p or arg.startswith(p + "/") for p in paths)

    seconds = CONFIG["run_seconds"]
    assert isinstance(seconds, int) and 1 <= seconds <= 60

    wl = CONFIG["workloads"]
    assert 2 <= len(wl) <= 8
    for w in wl:
        assert set(w) == {"name", "why"}
        assert NAME.fullmatch(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [w["name"] for w in wl] == list(workloads.WORKLOADS)
    assert (4 + 22 * len(wl)) * seconds < RUNS_BUDGET_S

    e2e, layers = CONFIG["end_to_end"], CONFIG["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layers:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))

    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--size", "smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, out.stdout
    assert result["correct"] and result["attempted"] >= 1
    named = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(CONFIG_PATH, tmp_path)
    for p in CONFIG["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
