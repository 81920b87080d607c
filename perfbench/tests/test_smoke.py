"""Smoke test of the whole benchmark at toy size.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [*SPEC["command"], "--seed", "3", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return _result(_run("--workload", "all", "--trace", "1", "--size", "toy"))


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, section, traced):
    result = traced if trace == "1" else _result(_run("--workload", "all", "--trace", "0", "--size", "toy"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0  # error_rate is 0
    assert result["attempted"] >= len(WORKLOADS)
    expected = {f"{w}/{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_single_workload_line_has_bare_metric_names():
    result = _result(_run("--workload", "dual-route-capped", "--trace", "0", "--size", "toy"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_exactly(traced):
    again = _result(_run("--workload", "all", "--trace", "1", "--size", "toy"))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    counts.remove("trace.overhead_ratio")
    for workload in WORKLOADS:
        for name in counts:
            key = f"{workload}/{name}"
            assert again["metrics"][key] == traced["metrics"][key], key


def test_fails_without_the_program(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
