#!/usr/bin/env python3
"""Benchmark of the healthval valuation engine.

    python3 perfbench/run.py --workload decomp-portfolio --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Generates the workload's inputs from
the seed under ``perfbench/.work``, measures set-up in fresh
interpreters, then starts one workload process that runs ops one at a
time (closed loop, one client) for ``--seconds`` and checks every op's
output.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.
``--workload all`` runs every workload in turn.  See README.md for the
workloads, the metrics and the layer each metric belongs to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# BLAS runs on one thread, here and in every child, set before numpy loads.
# With two, a block-sized matmul (10 000 x 101) that takes 5 ms sometimes
# took 0.2 s on a 2-vCPU VM, waiting for its second thread: noise that is
# not the program's.  One client, one op at a time, never more than nproc.
BLAS_THREADS = 1
os.environ.update(
    {v: str(BLAS_THREADS) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
)

import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
import generate  # noqa: E402

#: workload -> size -> (policies, scenario paths)
SIZES = {
    "decomp-portfolio": {"full": (2000, 10_000), "toy": (60, 200)},
    "dual-route-capped": {"full": (40, 10_000), "toy": (4, 200)},
    "cli-runs": {"full": (16, 2_000), "toy": (3, 100)},
}
SETUP_REPEATS = {"full": 5, "toy": 2}
CHECK_PATHS = 16

LAYER_TIMES = (
    "decomposition.aggregate",
    "decomposition.be_from_blocks",
    "policy_engine.simulate_portfolio",
    "policy_engine.simulate_portfolio_capped",
    "esg.mc_model",
    "esg.calibration_check",
    "term_structures.scenario_set",
    "pricing.building_blocks",
    "pricing.be_report",
    "io_files.write_scenarios",
    "io_files.write_triangle",
    "io_files.write_blocks",
    "reporting.render",
    "cli.main",
)
SETUP_LAYER_TIMES = ("io_files.load_curve", "io_files.load_portfolio")
LAYER_COUNTS = (
    "decomposition.triangle_entries",
    "policy_engine.policy_path_years",
    "esg.path_years",
    "io_files.bytes_written",
)


class BenchmarkError(RuntimeError):
    """A run that cannot produce a result (missing program, crashed worker)."""


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _tail(samples: list[float]):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            best = {"percentile": p, "value": float(np.percentile(samples, p))}
    return best


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _setup_seconds(spec_path: Path, repeats: int) -> list[float]:
    """Wall time from starting a fresh interpreter until its first op could start."""
    samples = []
    for attempt in range(repeats + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(WORKER), "--spec", str(spec_path), "--setup-only"],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed (exit {proc.returncode})")
        if attempt:  # the first start also compiles bytecode; users pay that once
            samples.append(elapsed)
    return samples


def _run_worker(spec_path: Path, seconds: float) -> dict:
    # Own process group, so a timeout also stops the CLI runs it started.
    with subprocess.Popen(
        [sys.executable, str(WORKER), "--spec", str(spec_path)],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=seconds + 120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, dict]:
    """Measure one workload; returns (result record, run description)."""
    if not (ROOT / "src" / "healthval" / "__init__.py").is_file():
        raise BenchmarkError(f"no healthval package under {ROOT / 'src'}; run from a checkout")
    n_policies, n_paths = SIZES[workload][size]
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch))
    try:
        inputs = generate.write_inputs(work / "inputs", seed, n_policies, n_paths)
        rng = np.random.default_rng([seed, 7])
        spec = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "curves": str(inputs.curves),
            "portfolio": str(inputs.portfolio),
            "tables_dir": str(inputs.tables_dir),
            "config": str(inputs.config),
            "model": json.loads(inputs.config.read_text(encoding="utf-8"))["model"],
            "spread": generate.SPREAD,
            "cap": generate.CAP,
            "check_paths": sorted(int(k) for k in rng.choice(n_paths, CHECK_PATHS, replace=False)),
        }
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        setup = [] if trace else _setup_seconds(spec_path, SETUP_REPEATS[size])
        record = _run_worker(spec_path, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = record["ops"] + record.get("traced", [])
    attempted = len(ops)
    about = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "env": _environment(),
        "sizes": {
            "n_policies": n_policies,
            "n_paths": n_paths,
            "horizon": generate.HORIZON,
            "distinct_keys": inputs.distinct_keys,
        },
        "ops": attempted,
        "op_seconds": record["ops"],
        "op_p50_s": statistics.median(record["ops"]),
        "op_tail": _tail(record["ops"]),
        "error_rate": record["failed"] / attempted if attempted else 1.0,
    }
    if trace:
        metrics = _layer_metrics(record, inputs.distinct_keys, n_policies)
        about["missing_targets"] = record["missing_targets"]
        spans_out = scratch / f"spans-{workload}-seed{seed}.json"
        spans_out.write_text(json.dumps(record["spans"]), encoding="utf-8")
        about["spans_file"] = str(spans_out.relative_to(ROOT))
    else:
        about["setup_samples_s"] = setup
        valued = record["policies_per_op"] * (attempted - record["failed"])
        metrics = {
            "policies_per_s": _metric(valued / sum(ops), "1/s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(record["peak_rss_mb"], "MB"),
        }
    result = {
        "correct": attempted > 0 and record["failed"] == 0,
        "attempted": attempted,
        "failed": record["failed"],
        "metrics": metrics,
    }
    return result, about


def _layer_metrics(record: dict, distinct_keys: int, n_policies: int) -> dict:
    def median_of(rows, name):
        return statistics.median(row.get(name, 0.0) for row in rows)

    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = _metric(median_of(record["layers"], name), "s")
    for name in SETUP_LAYER_TIMES:
        metrics[f"{name}_s"] = _metric(median_of(record["setup_layers"], name), "s")
    for name in LAYER_COUNTS:
        unit = "bytes" if name == "io_files.bytes_written" else "count"
        metrics[name] = _metric(median_of(record["counts"], name), unit)
    metrics["decomposition.distinct_keys"] = _metric(distinct_keys, "count")
    metrics["decomposition.distinct_ratio"] = _metric(distinct_keys / n_policies, "ratio")
    overhead = statistics.median(record["traced"]) / statistics.median(record["ops"])
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="healthval benchmark")
    parser.add_argument("--workload", required=True, choices=[*SIZES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full", help="toy: smoke-test sizes")
    args = parser.parse_args(argv)

    workloads = list(SIZES) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            result, about = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.size)
            print(json.dumps(about, sort_keys=True))
            for name, metric in result["metrics"].items():
                print(f"{workload}  {name} = {metric['value']:.6g} {metric['unit']}")
            # Reported, not gated: see README.md, "Bounds and noise".
            print(f"{workload}  op_p50_s = {about['op_p50_s']:.6g} s (of {len(about['op_seconds'])} ops)")
            print(f"{workload}  error_rate = {about['error_rate']:.6g} ({result['failed']}/{result['attempted']} ops)")
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(workloads) == 1 else f"{workload}/"
            combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
