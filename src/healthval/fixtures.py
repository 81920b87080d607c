"""Built-in example data: a three-date toy contract and a synthetic tariff.

The toy contract runs for exactly three dates with a zero technical
rate, no terminations before the final date, and a single benefit of 30
at the last date.  Its premium path has the closed form

    P = (10, 15*i1 - 5, 30*i2 - 15*i1 - 5),

which the test suite pins.  Its second-order benefits are zero, so the
projected cash flow is exactly the premium leg; that makes the contract
Best Estimate equal the worked closed form in terms of bond prices and
one delayed-index block price.

The inpatient-style tariff (benefits increasing in age, combined
death/surrender rates with high early lapse and old-age mortality) is
synthetic: shaped to be plausible and to satisfy the documented
premium-path properties, not calibrated to any published table.
"""

from __future__ import annotations

import numpy as np

from .policy_engine import (
    DEFAULT_TERMINAL_AGE,
    FirstOrderBasis,
    PolicyData,
    SecondOrderBasis,
)
from .term_structures import CurvePair


def toy_first_order() -> FirstOrderBasis:
    return FirstOrderBasis(
        k1=np.array([0.0, 0.0, 30.0]),
        q1=np.array([0.0, 0.0, 1.0]),
        r_calc=0.0,
    )


def toy_second_order() -> SecondOrderBasis:
    # Zero best-estimate benefits: the modeled cash flow is the premium leg.
    return SecondOrderBasis(
        k2=np.zeros(3),
        q2=np.array([0.0, 0.0, 1.0]),
    )


def toy_policy(rs0: float = 0.0) -> PolicyData:
    return PolicyData(x0=0, fo=toy_first_order(), so=toy_second_order(), rs0=rs0, id="toy-1")


def toy_curve() -> CurvePair:
    return CurvePair(pn=np.array([1.0, 0.98, 0.95, 0.95]), pr=np.ones(4))


def flat_curve(horizon: int, nominal_rate: float, real_rate: float) -> CurvePair:
    """Flat-rate curve pair: p[t] = (1 + rate)^-t."""
    t = np.arange(horizon + 1)
    return CurvePair(pn=(1.0 + nominal_rate) ** -t, pr=(1.0 + real_rate) ** -t)


def long_curve(horizon: int = 100) -> CurvePair:
    """Shipped demo curve: 2% nominal, 0.5% real, out to the given horizon."""
    return flat_curve(horizon, 0.02, 0.005)


def inpatient_benefits() -> np.ndarray:
    """Annual inpatient benefit by age: rises with age, flattens at 90."""
    x = np.arange(DEFAULT_TERMINAL_AGE + 1)
    return np.round(260.0 * 1.028 ** np.minimum(x, 90), 2)


def inpatient_terminations() -> np.ndarray:
    """Combined death/surrender by age: high early lapse, old-age mortality."""
    x = np.arange(DEFAULT_TERMINAL_AGE + 1)
    lapse = 0.065 * np.exp(-0.022 * np.maximum(x - 20, 0)) + 0.022
    mortality = 1.2e-4 * np.exp(0.094 * x)
    q = np.minimum(lapse + mortality, 0.95)
    q[-1] = 1.0
    return np.round(q, 6)


def inpatient_first_order(r_calc: float = 0.01) -> FirstOrderBasis:
    return FirstOrderBasis(
        k1=inpatient_benefits(),
        q1=inpatient_terminations(),
        r_calc=r_calc,
        c1=24.0,
        margin=0.05,
    )


def inpatient_second_order() -> SecondOrderBasis:
    # Best estimates: slightly lower benefits, slightly higher terminations
    # than the prudent basis.
    q2 = np.minimum(inpatient_terminations() * 1.1, 0.95)
    q2[-1] = 1.0
    return SecondOrderBasis(
        k2=np.round(inpatient_benefits() / 1.06, 2),
        q2=np.round(q2, 6),
        c2=20.0,
    )


def inpatient_policy(x0: int, rs0: float = 0.0, policy_id: str = "") -> PolicyData:
    return PolicyData(
        x0=x0,
        fo=inpatient_first_order(),
        so=inpatient_second_order(),
        rs0=rs0,
        id=policy_id or f"inpatient-{x0}",
    )


def write_fixture_tree(root) -> None:
    """Write the shipped example inputs (curves, tables, portfolios, configs)."""
    import json
    from pathlib import Path

    from .io_files import write_age_table, write_curve

    root = Path(root)
    tables = root / "tables"
    tables.mkdir(parents=True, exist_ok=True)

    write_curve(root / "curves_toy.csv", toy_curve())
    write_curve(root / "curves_long.csv", long_curve(100))

    write_age_table(tables / "toy_k1.csv", toy_first_order().k1, "k")
    write_age_table(tables / "toy_k2.csv", toy_second_order().k2, "k")
    write_age_table(tables / "toy_q.csv", toy_first_order().q1, "q")
    write_age_table(tables / "inpatient_k1.csv", inpatient_benefits(), "k")
    write_age_table(tables / "inpatient_k2.csv", inpatient_second_order().k2, "k")
    write_age_table(tables / "inpatient_q1.csv", inpatient_terminations(), "q")
    write_age_table(tables / "inpatient_q2.csv", inpatient_second_order().q2, "q")

    header = (
        "id,x0,rs0,margin,r_calc,c1,c2,benefit_table,benefit_table_2nd,q_table,q_table_2nd\n"
    )
    (root / "portfolio_toy.csv").write_text(
        header + "toy-1,0,0,0,0,0,0,toy_k1.csv,toy_k2.csv,toy_q.csv,toy_q.csv\n",
        encoding="utf-8",
    )
    inpatient_row = (
        "{pid},{x0},0,0.05,0.01,24,20,inpatient_k1.csv,inpatient_k2.csv,"
        "inpatient_q1.csv,inpatient_q2.csv\n"
    )
    (root / "portfolio_inpatient.csv").write_text(
        header
        + inpatient_row.format(pid="inpatient-25", x0=25)
        + inpatient_row.format(pid="inpatient-35", x0=35),
        encoding="utf-8",
    )

    configs = {
        "config_toy.json": {
            "curves": "curves_toy.csv",
            "portfolio": "portfolio_toy.csv",
            "tables_dir": "tables",
            "model": {"kind": "deterministic"},
            "model_b": {"kind": "two_scenario", "cn1": 0.5, "cr1": 1.0, "p1": 0.5},
            "spread": {"med": 0.0, "cost": 0.0},
            "seed": 1,
            "out_dir": "out/toy",
            "tolerance": 1e-9,
        },
        "config_inpatient.json": {
            "curves": "curves_long.csv",
            "portfolio": "portfolio_inpatient.csv",
            "tables_dir": "tables",
            "model": {"kind": "mc", "n_paths": 2000, "vol_n": 0.015, "vol_r": 0.008, "corr": 0.25},
            "spread": {"med": 0.01, "cost": 0.0},
            "cap": {"abs_increase": 0.05, "inflation_multiple": 1.0},
            "seed": 42,
            "out_dir": "out/inpatient",
            "tolerance": 1e-9,
            "premium_path": {
                "policy_id": "inpatient-25",
                "r_nominal": 0.01,
                "r_real": -0.01,
                "inflation_factor": 101.0 / 99.0,
            },
        },
    }
    for name, payload in configs.items():
        (root / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
