"""Workload process of the healthval benchmark.

Started by ``run.py`` in a fresh interpreter with a spec file.  It
imports healthval from the checkout's ``src``, loads the generated
inputs through ``io_files`` and either stops there (``--setup-only``,
printing ``ready`` when the first op could start) or runs ops one at a
time in a closed loop until the time budget is spent, checking every
op's output.  The last stdout line is a JSON record for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parents[1] / "src"


class Workload:
    """Inputs and op of one workload.

    ``run_op`` runs one op and returns a callable that checks its output
    (not timed), giving an error message or None.
    """

    def __init__(self, spec: dict, hv):
        self.spec = spec
        self.hv = hv
        self.curve = hv.io_files.load_curve(spec["curves"])
        self.portfolio = hv.io_files.load_portfolio(spec["portfolio"], spec["tables_dir"])
        model = spec["model"]
        self.mc_params = hv.esg.McModelParams(
            n_paths=model["n_paths"],
            vol_n=model["vol_n"],
            vol_r=model["vol_r"],
            corr=model["corr"],
            seed=spec["seed"],
        )
        self.spread = hv.pricing.InflationSpread(spec["spread"]["med"], spec["spread"]["cost"])
        self.cap = hv.policy_engine.CapRule(spec["cap"]["abs_increase"], spec["cap"]["inflation_multiple"])

    @property
    def policies_per_op(self) -> int:
        return len(self.portfolio)


class DecompPortfolio(Workload):
    """Decomposition route at production N: scenarios, blocks, triangle, BE."""

    def __init__(self, spec, hv):
        super().__init__(spec, hv)
        self._reference: dict[bytes, float] = {}

    def run_op(self):
        hv = self.hv
        scenarios = hv.esg.mc_model(self.curve, self.mc_params)
        calibration = hv.esg.calibration_check(scenarios, self.curve, tolerance=1e-12)
        blocks = hv.pricing.building_blocks(scenarios, self.spread)
        tri = hv.decomposition.aggregate(self.portfolio)
        be = hv.decomposition.be_from_blocks(tri, blocks)
        return lambda: self._check(scenarios, calibration, tri, be)

    def _check(self, scenarios, calibration, tri, be):
        hv = self.hv
        if not calibration.passed:
            return f"calibration error above 1e-12: {calibration}"
        if not be == be:
            return "BE is NaN"
        # Reprice the timed triangle on a few reweighted paths and compare
        # with brute force on the same paths; brute force on the full set
        # would cost more than the op itself.
        idx = self.spec["check_paths"]
        weights = scenarios.weights[idx]
        subset = hv.term_structures.ScenarioSet(
            bn=scenarios.bn[idx], br=scenarios.br[idx], weights=weights / weights.sum()
        )
        key = subset.bn.tobytes() + subset.br.tobytes() + subset.weights.tobytes()
        if key not in self._reference:
            self._reference[key] = hv.policy_engine.simulate_portfolio(
                self.portfolio, subset, self.spread
            ).be
        reference = self._reference[key]
        priced = hv.decomposition.be_from_blocks(tri, hv.pricing.building_blocks(subset, self.spread))
        gap = abs(priced - reference) / max(1.0, abs(reference))
        if not gap <= 1e-9:
            return f"triangle on {len(idx)} paths misses brute force by {gap:.3e} relative"
        return None


class DualRouteCapped(Workload):
    """``be_report`` with a binding cap: both routes, uncapped and capped brute force."""

    def run_op(self):
        hv = self.hv
        scenarios = hv.esg.mc_model(self.curve, self.mc_params)
        report = hv.pricing.be_report(
            self.portfolio, scenarios, self.spread, tolerance=1e-9, cap=self.cap
        )
        return lambda: self._check(report)

    @staticmethod
    def _check(report):
        if not report.routes_agree:
            return f"routes disagree by {report.relative_difference:.3e}"
        if report.cap_bound is not True:
            return "cap rule did not bind"
        if not report.be_oracle_capped >= report.be_oracle:
            return f"capped BE {report.be_oracle_capped} below uncapped {report.be_oracle}"
        return None


class CliRuns(Workload):
    """One op: ``healthval value`` then ``healthval simulate --cap`` on the generated config.

    Untraced ops run each command in its own interpreter, as a user
    would; traced ops call ``cli.main`` in-process so spans can see it.
    """

    def __init__(self, spec, hv):
        super().__init__(spec, hv)
        root = Path(spec["config"]).parent
        self.value_out = root / "out-value"
        self.simulate_out = root / "out-simulate"
        self._first: dict[str, bytes] = {}
        self.in_process = False

    @property
    def policies_per_op(self) -> int:
        return 2 * len(self.portfolio)

    def _commands(self):
        config = self.spec["config"]
        return (
            ["value", "--config", config, "--out", str(self.value_out)],
            ["simulate", "--cap", "--config", config, "--out", str(self.simulate_out)],
        )

    def run_op(self):
        codes = []
        for argv in self._commands():
            if self.in_process:
                codes.append(self.hv.cli.main(argv))
            else:
                env = dict(os.environ, PYTHONPATH=str(SRC))
                done = subprocess.run(
                    [sys.executable, "-m", "healthval", *argv],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                    timeout=120,
                )
                if done.returncode != 0:
                    sys.stderr.write(done.stderr.decode("utf-8", "replace"))
                codes.append(done.returncode)
        return lambda: self._check(codes)

    def _check(self, codes):
        if codes != [0, 0]:
            return f"exit codes {codes}"
        outputs = {
            "report.json": (self.value_out / "report.json").read_bytes(),
            "simulate.json": (self.simulate_out / "simulate.json").read_bytes(),
        }
        report = json.loads(outputs["report.json"])
        if report["best_estimate"]["routes_agree"] is not True:
            return "routes_agree is not true in report.json"
        if json.loads(outputs["simulate.json"])["cap_bound"] is not True:
            return "cap rule did not bind in simulate.json"
        for name, data in outputs.items():
            if self._first.setdefault(name, data) != data:
                return f"{name} differs from the first run's"
        return None


WORKLOADS = {
    "decomp-portfolio": DecompPortfolio,
    "dual-route-capped": DualRouteCapped,
    "cli-runs": CliRuns,
}


def _import_healthval() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    from healthval import cli, decomposition, esg, io_files, policy_engine, pricing, term_structures

    modules = (cli, decomposition, esg, io_files, policy_engine, pricing, term_structures)
    return SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in modules})


def _run_one(workload, record, recording=nullcontext) -> float:
    """Run and check one op; returns its wall time (the check is not timed)."""
    check, error = None, None
    with recording():
        start = time.perf_counter()
        try:
            check = workload.run_op()
        except Exception:  # an op that raises is a failed op, not a crashed run
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    if check is not None:
        try:
            error = check()
        except Exception:
            error = traceback.format_exc()
    record["failed"] += error is not None
    if error is not None:
        sys.stderr.write(f"op failed: {error}\n")
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))

    hv = _import_healthval()
    workload = WORKLOADS[spec["workload"]](spec, hv)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    deadline = time.perf_counter() + spec["seconds"]
    record = {"ops": [], "failed": 0, "policies_per_op": workload.policies_per_op}
    if not spec["trace"]:
        while time.perf_counter() < deadline:
            record["ops"].append(_run_one(workload, record))
        usage = resource.RUSAGE_CHILDREN if isinstance(workload, CliRuns) else resource.RUSAGE_SELF
        record["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    else:
        from spans import Tracer

        tracer = Tracer()
        if isinstance(workload, CliRuns):
            workload.in_process = True
        # Set-up loads under spans; run.py takes the median of the repeats.
        record["setup_layers"] = []
        for _ in range(3):
            with tracer.op():
                type(workload)(spec, hv)
            record["setup_layers"].append(tracer.op_summary()[0])
        record.update(traced=[], layers=[], counts=[])
        # Untraced and traced ops alternate, so drift hits both alike.
        while time.perf_counter() < deadline:
            record["ops"].append(_run_one(workload, record))
            record["traced"].append(_run_one(workload, record, tracer.op))
            self_time, counts = tracer.op_summary()
            record["layers"].append(self_time)
            record["counts"].append(counts)
        record["missing_targets"] = tracer.missing
        record["spans"] = tracer.spans
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
