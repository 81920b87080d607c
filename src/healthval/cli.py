"""Command-line surface for batch valuation runs.

Subcommands: ``value`` (both routes plus agreement check), ``simulate``
(brute-force only, the route that supports caps), ``compare`` (two
models side by side), ``premium-path`` (nominal vs real technical-rate
convention), ``demo-nonuniqueness`` (two-scenario parameter sweep) and
``calibrate-check``.

Every run is a pure function of (config file, input files, seed):
re-running writes byte-identical reports.  Exit codes: 0 success, 2
input error (with a machine-readable JSON record on stderr), 3 tolerance
or route-disagreement failure, including an ``ArithmeticError`` raised
when a numerical identity breaks down.

Each subcommand is a handler ``_cmd_*(args, config)``.  ``main`` reads
the config once and passes it in; the handler writes its files through
``_write_report`` and returns ``None`` or a ``(kind, message)`` failure,
which ``main`` emits as a JSON record before returning 3.  So a command
whose check fails has written all of its files first.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import reporting
from .decomposition import aggregate, be_from_blocks
from .esg import (
    TwoScenarioParams,
    calibration_check,
    delayed_inflation_factor,
    deterministic_model,
    two_scenario_model,
)
from .io_files import (
    MODEL_KINDS,
    ParseError,
    RunConfig,
    load_config,
    load_curve,
    load_portfolio,
    write_blocks,
    write_scenarios,
    write_triangle,
)
from .policy_engine import first_order_pv, project, project_real_rate, simulate_portfolio
from .pricing import be_report, building_blocks

#: What a handler returns: None, or the (kind, message) of a failed check.
_Failure = Optional[tuple[str, str]]

#: Fixed two-scenario sweep: tilt ladders approaching the two price limits.
SWEEP_SPIKE = [(cn1, 1.0, 0.5) for cn1 in (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005)]
SWEEP_CRASH = [
    (0.5, cr1, p1)
    for cr1, p1 in ((0.5, 0.6), (0.2, 0.8), (0.1, 0.9), (0.05, 0.95), (0.02, 0.98), (0.01, 0.985))
]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        # Overflow from extreme but finite input is reported by the
        # validators that reject the non-finite result, not by numpy.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            config = load_config(
                args.config, model=args.model, seed=args.seed, out_dir=args.out, tolerance=args.tolerance
            )
            failure = args.handler(args, config)
    except ParseError as exc:
        _emit_error("parse", str(exc), file=exc.path, line=exc.line, column=exc.column)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        _emit_error("input", str(exc))
        return 2
    except ArithmeticError as exc:
        _emit_error("tolerance", str(exc))
        return 3
    if failure is not None:
        _emit_error(*failure)
        return 3
    return 0


def _emit_error(kind: str, message: str, **context) -> None:
    record = {"error": {"kind": kind, "message": message, **context}}
    sys.stderr.write(reporting.dumps(record))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="healthval",
        description="Batch valuation of lifelong health insurance liabilities.",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name: str, help_text: str, handler):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--model", choices=MODEL_KINDS, default=None, help="override the config model kind")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument("--tolerance", type=float, default=None, help="override the tolerance")
        cmd.set_defaults(handler=handler)
        return cmd

    add("value", "value a portfolio by both routes and compare them", _cmd_value)
    sim = add("simulate", "brute-force valuation only (supports premium caps)", _cmd_simulate)
    sim.add_argument("--cap", action="store_true", help="apply the config's cap rule")
    add("compare", "price the building blocks under two models side by side", _cmd_compare)
    add("premium-path", "nominal vs real technical-rate premium trajectories", _cmd_premium_path)
    add("demo-nonuniqueness", "two-scenario sweep moving a block price 10x both ways", _cmd_demo)
    add("calibrate-check", "verify a model reprices the input curves", _cmd_calibrate)
    return parser


def _load_inputs(config: RunConfig):
    curve = load_curve(config.curves)
    portfolio = load_portfolio(config.portfolio, config.tables_dir)
    return curve, portfolio


def _write_report(args, config: RunConfig, name: str, report: dict, texts: dict) -> Path:
    """Write the JSON report ``name`` with the command and config echo, then ``texts``.

    Returns the output directory, where the command writes its CSV exports.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"command": args.command, "config": config.echo(), **report}
    (out / name).write_text(reporting.dumps(payload), encoding="utf-8")
    for text_name, text in texts.items():
        (out / text_name).write_text(text, encoding="utf-8")
    return out


def _section(args, section, message: str):
    """A config section the command needs; a missing one is a parse error at the config's start."""
    if section is None:
        raise ParseError(args.config, 1, 1, message)
    return section


def _scenarios_echo(scenarios) -> dict:
    return {"n_paths": scenarios.n_paths, "horizon": scenarios.horizon, "sampled": scenarios.sampled}


def _contributions_chart(per_t) -> str:
    return reporting.svg_bar_chart(per_t, "Best-Estimate contribution by date")


def _cmd_value(args, config: RunConfig) -> _Failure:
    curve, portfolio = _load_inputs(config)
    scenarios = config.model.build(curve)
    report = be_report(
        portfolio, scenarios, config.spread, tolerance=config.tolerance, cap=config.cap
    )
    payload = {
        "portfolio": {"n_policies": report.n_policies, "horizon": report.horizon},
        "scenarios": _scenarios_echo(scenarios),
        "best_estimate": {
            "decomposition": report.be_decomposition,
            "oracle": report.be_oracle,
            "difference": report.difference,
            "relative_difference": report.relative_difference,
            "tolerance": report.tolerance,
            "routes_agree": report.routes_agree,
            "standard_error": report.standard_error,
            "oracle_capped": report.be_oracle_capped,
            "cap_bound": report.cap_bound,
        },
        "per_t": report.per_t,
    }
    rows = [
        ["BE (decomposition)", report.be_decomposition],
        ["BE (brute force)", report.be_oracle],
        ["difference", report.difference],
        ["relative difference", report.relative_difference],
        ["routes agree", report.routes_agree],
    ]
    if report.standard_error is not None:
        rows.append(["Monte-Carlo SE", report.standard_error])
    if report.be_oracle_capped is not None:
        rows.append(["BE (capped, brute force)", report.be_oracle_capped])
        rows.append(["cap bound", report.cap_bound])
    texts = {
        "report.txt": reporting.table(["quantity", "value"], rows),
        "contributions.svg": _contributions_chart(report.per_t),
    }
    out = _write_report(args, config, "report.json", payload, texts)
    write_triangle(out / "triangle_gross.csv", out / "triangle_fixed.csv", report.triangle)
    write_blocks(out / "blocks.csv", report.blocks)
    if not report.routes_agree:
        return (
            "route-disagreement",
            f"decomposition and brute-force Best Estimates differ by {report.relative_difference:.3e} "
            f"(tolerance {report.tolerance:.3e})",
        )
    return None


def _cmd_simulate(args, config: RunConfig) -> _Failure:
    cap = _section(args, config.cap, "--cap requested but the config has no cap section") if args.cap else None
    curve, portfolio = _load_inputs(config)
    scenarios = config.model.build(curve)
    sim = simulate_portfolio(portfolio, scenarios, config.spread, cap=cap)
    payload = {
        "cap_applied": bool(cap),
        "cap_bound": sim.cap_bound,
        "best_estimate": sim.be,
        "per_t": sim.per_t,
        "scenarios": _scenarios_echo(scenarios),
    }
    rows = [["BE (brute force)", sim.be], ["cap applied", bool(cap)], ["cap bound", sim.cap_bound]]
    texts = {
        "simulate.txt": reporting.table(["quantity", "value"], rows),
        "simulate_contributions.svg": _contributions_chart(sim.per_t),
    }
    out = _write_report(args, config, "simulate.json", payload, texts)
    write_scenarios(out / "scenarios.csv", scenarios)


def _sweep(curve) -> dict:
    """Two-scenario tilt sweep: block price vs the deterministic value."""
    if curve.horizon < 2:
        raise ValueError(
            f"the sweep prices the (t=2, s=1) block and needs a curve with horizon >= 2, got {curve.horizon}"
        )
    det_value = float(building_blocks(deterministic_model(curve)).med[2, 1])
    entries = []
    for direction, grid in (("inflation-spike", SWEEP_SPIKE), ("deflation-degenerate", SWEEP_CRASH)):
        for cn1, cr1, p1 in grid:
            params = TwoScenarioParams(cn1=cn1, cr1=cr1, p1=p1)
            scen = two_scenario_model(curve, params)
            calib = calibration_check(scen, curve, tolerance=1e-12)
            priced = float(building_blocks(scen).med[2, 1])
            entries.append(
                {
                    "direction": direction,
                    "cn1": cn1,
                    "cr1": cr1,
                    "p1": p1,
                    "factor": delayed_inflation_factor(params),
                    "delayed_block_price": priced,
                    "ratio_vs_deterministic": priced / det_value,
                    "calibration_error": max(calib.max_error_nominal, calib.max_error_real),
                    "calibration_passed": calib.passed,
                }
            )
    ratios = [e["ratio_vs_deterministic"] for e in entries]
    return {
        "deterministic_value": det_value,
        "entries": entries,
        "exhibits_above_10x": max(ratios) > 10.0,
        "exhibits_below_0p1x": min(ratios) < 0.1,
        "all_calibrated": all(e["calibration_passed"] for e in entries),
    }


def _cmd_demo(args, config: RunConfig) -> _Failure:
    sweep = _sweep(load_curve(config.curves))
    rows = [
        [e["direction"], e["cn1"], e["cr1"], e["p1"], e["delayed_block_price"], e["ratio_vs_deterministic"]]
        for e in sweep["entries"]
    ]
    texts = {"nonuniqueness.txt": reporting.table(["direction", "cn1", "cr1", "p1", "price", "ratio"], rows)}
    _write_report(args, config, "nonuniqueness.json", {"sweep": sweep}, texts)
    if not (sweep["exhibits_above_10x"] and sweep["exhibits_below_0p1x"] and sweep["all_calibrated"]):
        return ("sweep", "sweep failed to exhibit both price limits with exact calibration")
    return None


def _cmd_compare(args, config: RunConfig) -> _Failure:
    model_b = _section(args, config.model_b, "compare needs a model_b section in the config")
    curve, portfolio = _load_inputs(config)
    sweep = _sweep(curve)  # rejects a short curve before either model is built
    tri = aggregate(portfolio)

    def side(model):
        # Every model prices the curve's whole horizon, which the sweep
        # has checked is at least 2, so each has the (t=2, s=1) block.
        blocks = building_blocks(model.build(curve), config.spread)
        return blocks, {
            "model": model.echo(),
            "be_decomposition": be_from_blocks(tri, blocks),
            "delayed_block_price_2_1": float(blocks.med[2, 1]),
            "nominal_diag": blocks.med[:, 0],
        }

    (blocks_a, side_a), (blocks_b, side_b) = side(config.model), side(model_b)
    payload = {
        "model_a": side_a,
        "model_b": side_b,
        "be_delta": side_b["be_decomposition"] - side_a["be_decomposition"],
        "max_block_delta": float(np.max(np.abs(blocks_a.med - blocks_b.med))),
        "delayed_block_ratio_2_1": side_b["delayed_block_price_2_1"] / side_a["delayed_block_price_2_1"],
        "sweep": sweep,
    }
    rows = [
        ["BE (decomposition)", side_a["be_decomposition"], side_b["be_decomposition"]],
        ["delayed block (t=2,s=1)", side_a["delayed_block_price_2_1"], side_b["delayed_block_price_2_1"]],
    ]
    texts = {"compare.txt": reporting.table(["quantity", "model A", "model B"], rows)}
    out = _write_report(args, config, "compare.json", payload, texts)
    write_blocks(out / "blocks_a.csv", blocks_a)
    write_blocks(out / "blocks_b.csv", blocks_b)
    # The portfolio triangle is model-independent: one export serves both
    # sides and is what portfolio diffs compare.
    write_triangle(out / "triangle_gross.csv", out / "triangle_fixed.csv", tri)


def _cmd_premium_path(args, config: RunConfig) -> _Failure:
    pp = _section(args, config.premium_path, "premium-path needs a premium_path section in the config")
    portfolio = load_portfolio(config.portfolio, config.tables_dir)  # the curve file plays no part
    matches = [p for p in portfolio if p.id == pp.policy_id]
    if not matches:
        raise ValueError(f"policy id {pp.policy_id!r} not found in the portfolio")
    policy = matches[0]

    nominal = replace(policy, fo=replace(policy.fo, r_calc=pp.r_nominal))
    real = replace(policy, fo=replace(policy.fo, r_calc=pp.r_real))
    index = pp.inflation_factor ** np.arange(nominal.run_off + 1)
    res_nominal = project(nominal, index, index)
    if res_nominal.premiums_net[0] == 0.0:
        raise ValueError(
            f"policy {policy.id!r} has a zero nominal initial premium; there is no relative gap to report"
        )
    res_real = project_real_rate(real, index)
    pv_nominal = first_order_pv(nominal.fo, nominal.x0, res_nominal.premiums_net, pp.r_nominal)
    pv_real = first_order_pv(nominal.fo, nominal.x0, res_real.premiums_net, pp.r_nominal)
    rel_gap = abs(pv_nominal - pv_real) / max(abs(pv_nominal), 1e-300)
    initial_gap = abs(res_real.premiums_net[0] / res_nominal.premiums_net[0] - 1.0)

    payload = {
        "policy_id": policy.id,
        "r_nominal": pp.r_nominal,
        "r_real": pp.r_real,
        "inflation_factor": pp.inflation_factor,
        "premiums_nominal_convention": res_nominal.premiums_net,
        "premiums_real_convention": res_real.premiums_net,
        "present_value_nominal_convention": pv_nominal,
        "present_value_real_convention": pv_real,
        "present_value_relative_gap": rel_gap,
        "initial_premium_relative_gap": initial_gap,
        "tolerance": config.tolerance,
    }
    series = {
        f"nominal rate {pp.r_nominal:.4g}": res_nominal.premiums_net,
        f"real rate {pp.r_real:.4g}": res_real.premiums_net,
    }
    rows = [
        ["PV nominal convention", pv_nominal],
        ["PV real convention", pv_real],
        ["PV relative gap", rel_gap],
        ["initial premium gap", initial_gap],
    ]
    texts = {
        "premium_path.svg": reporting.svg_line_chart(series, f"Net premium development, policy {policy.id}"),
        "premium_path.txt": reporting.table(["quantity", "value"], rows),
    }
    _write_report(args, config, "premium_path.json", payload, texts)
    if rel_gap > config.tolerance:
        return (
            "tolerance",
            f"premium-path present values differ by {rel_gap:.3e} (tolerance {config.tolerance:.3e})",
        )
    return None


def _cmd_calibrate(args, config: RunConfig) -> _Failure:
    curve = load_curve(config.curves)
    scenarios = config.model.build(curve)
    report = calibration_check(scenarios, curve, tolerance=config.tolerance)
    payload = {
        "max_error_nominal": report.max_error_nominal,
        "max_error_real": report.max_error_real,
        "tolerance": report.tolerance,
        "passed": report.passed,
    }
    _write_report(args, config, "calibration.json", payload, {})
    if not report.passed:
        return (
            "tolerance",
            f"calibration errors ({report.max_error_nominal:.3e}, {report.max_error_real:.3e}) "
            f"exceed tolerance {report.tolerance:.3e}",
        )
    return None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
