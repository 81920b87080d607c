"""Seeded input generator for the healthval benchmark.

Writes, into a directory of the caller's choosing, the files a valuation
run reads: a ``t,pn,pr`` curve, four ``age,k`` / ``age,q`` tables, a
portfolio CSV and a healthval run configuration.  The same seed gives
byte-identical files.  Nothing here imports healthval: the program sees
only the generated files, and a change to the package cannot change the
inputs it is measured on.

Portfolio shape:

- entry ages 21-69, drawn one per stratum of equal width, so every seed
  has the same age profile (and so the same amount of work) while the
  ages themselves move with the seed.  With terminal age 121 every
  run-off is 52-100 years and fits a horizon-100 scenario set;
- two tariffs on the same tables: the shipped inpatient basis and a
  variant with another technical rate, margin and fixed cost;
- new business (``rs0 = 0``) mixed with seasoned contracts, whose
  provision is the one the equivalence principle implies for a contract
  entered some years earlier at its original premium.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TERMINAL_AGE = 121
MIN_ENTRY_AGE = 21
MAX_ENTRY_AGE = 69
HORIZON = 100

#: tariff label -> (r_calc, margin, c1, c2); both use the inpatient tables.
TARIFFS = {
    "inpatient": (0.01, 0.05, 24.0, 20.0),
    "inpatient-variant": (0.02, 0.08, 30.0, 20.0),
}

TABLE_FILES = {
    "k1": "inpatient_k1.csv",
    "k2": "inpatient_k2.csv",
    "q1": "inpatient_q1.csv",
    "q2": "inpatient_q2.csv",
}

SEASONED_SHARE = 0.5
MC_PARAMS = {"kind": "mc", "vol_n": 0.015, "vol_r": 0.008, "corr": 0.25}
SPREAD = {"med": 0.01, "cost": 0.005}
#: Binds on these portfolios; the shipped (0.05, 2.0) rule does not.
CAP = {"abs_increase": 0.03, "inflation_multiple": 1.0}


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated input set, and its distinct (tariff, entry age) pairs."""

    curves: Path
    portfolio: Path
    tables_dir: Path
    config: Path
    distinct_keys: int


def benefits() -> np.ndarray:
    """Annual inpatient benefit by age: rises with age, flattens at 90."""
    x = np.arange(TERMINAL_AGE + 1)
    return np.round(260.0 * 1.028 ** np.minimum(x, 90), 2)


def terminations() -> np.ndarray:
    """Combined death/surrender by age: high early lapse, old-age mortality."""
    x = np.arange(TERMINAL_AGE + 1)
    lapse = 0.065 * np.exp(-0.022 * np.maximum(x - 20, 0)) + 0.022
    q = np.minimum(lapse + 1.2e-4 * np.exp(0.094 * x), 0.95)
    q[-1] = 1.0
    return np.round(q, 6)


def second_order_tables() -> tuple[np.ndarray, np.ndarray]:
    q2 = np.minimum(terminations() * 1.1, 0.95)
    q2[-1] = 1.0
    return np.round(benefits() / 1.06, 2), np.round(q2, 6)


def _value_tables(k1: np.ndarray, q1: np.ndarray, r_calc: float) -> tuple[np.ndarray, np.ndarray]:
    """First-order annuity factors a[x] and benefit values A[x] for every age."""
    ann = np.empty(TERMINAL_AGE + 1)
    apv = np.empty(TERMINAL_AGE + 1)
    ann[-1], apv[-1] = 1.0, k1[-1]
    for x in range(TERMINAL_AGE - 1, -1, -1):
        disc = (1.0 - q1[x]) / (1.0 + r_calc)
        ann[x] = 1.0 + disc * ann[x + 1]
        apv[x] = k1[x] + disc * apv[x + 1]
    return ann, apv


def portfolio_rows(rng: np.random.Generator, n: int) -> list[list[str]]:
    """Portfolio CSV rows (without header) for ``n`` policies."""
    k1, q1 = benefits(), terminations()
    values = {name: _value_tables(k1, q1, basis[0]) for name, basis in TARIFFS.items()}
    width = (MAX_ENTRY_AGE - MIN_ENTRY_AGE + 1) / n
    strata = MIN_ENTRY_AGE + np.floor((np.arange(n) + rng.uniform(0.0, 1.0, n)) * width)
    ages = rng.permutation(strata.astype(int))
    names = list(TARIFFS)
    rows = []
    for i, x0 in enumerate(ages):
        tariff = names[int(rng.integers(len(names)))]
        r_calc, margin, c1, c2 = TARIFFS[tariff]
        rs0 = 0.0
        if rng.uniform() < SEASONED_SHARE and x0 > MIN_ENTRY_AGE:
            # Entered at an earlier age at that age's level premium; the
            # provision is what the premium no longer covers at age x0.
            entry = int(rng.integers(max(MIN_ENTRY_AGE - 5, x0 - 30), x0))
            ann, apv = values[tariff]
            rs0 = max(float(apv[x0] - ann[x0] * apv[entry] / ann[entry]), 0.0)
        rows.append(
            [
                f"{tariff}-{i:05d}",
                str(int(x0)),
                repr(rs0),
                repr(margin),
                repr(r_calc),
                repr(c1),
                repr(c2),
                TABLE_FILES["k1"],
                TABLE_FILES["k2"],
                TABLE_FILES["q1"],
                TABLE_FILES["q2"],
            ]
        )
    return rows


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_inputs(root: Path, seed: int, n_policies: int, n_paths: int) -> Inputs:
    """Write one seeded input set under ``root`` and return its paths."""
    rng = np.random.default_rng([seed, n_policies])
    root = Path(root)
    tables_dir = root / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)

    # Flat curves whose level moves with the seed: 1.5-2.5% nominal, 0-1% real.
    rate_n, rate_r = rng.uniform(0.015, 0.025), rng.uniform(0.0, 0.01)
    t = np.arange(HORIZON + 1)
    pn, pr = (1.0 + rate_n) ** -t, (1.0 + rate_r) ** -t
    curves = root / "curves.csv"
    _write_csv(curves, ["t", "pn", "pr"], ([str(i), repr(float(pn[i])), repr(float(pr[i]))] for i in t))

    k2, q2 = second_order_tables()
    for key, column, values in (
        ("k1", "k", benefits()),
        ("k2", "k", k2),
        ("q1", "q", terminations()),
        ("q2", "q", q2),
    ):
        _write_csv(
            tables_dir / TABLE_FILES[key],
            ["age", column],
            ([str(age), repr(float(v))] for age, v in enumerate(values)),
        )

    portfolio = root / "portfolio.csv"
    header = [
        "id", "x0", "rs0", "margin", "r_calc", "c1", "c2",
        "benefit_table", "benefit_table_2nd", "q_table", "q_table_2nd",
    ]
    rows = portfolio_rows(rng, n_policies)
    _write_csv(portfolio, header, rows)
    # (tariff, entry age) pairs; a tariff is its (margin, r_calc, c1, c2).
    distinct_keys = len({(*row[3:7], row[1]) for row in rows})

    config = root / "config.json"
    payload = {
        "curves": curves.name,
        "portfolio": portfolio.name,
        "tables_dir": tables_dir.name,
        "model": {**MC_PARAMS, "n_paths": n_paths},
        "spread": SPREAD,
        "cap": CAP,
        "seed": seed,
        "out_dir": "out",
        "tolerance": 1e-9,
    }
    config.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return Inputs(curves, portfolio, tables_dir, config, distinct_keys)
