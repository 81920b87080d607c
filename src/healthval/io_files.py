"""File formats, parsing with positional diagnostics, and run configuration.

Formats (all CSV with a mandatory header, decimal points, no thousands
separators):

- curve file: ``t,pn,pr``, one row per integer t from 0 to T, first row
  ``0,1,1``;
- age tables: ``age,q`` (termination) or ``age,k`` (benefit), ages
  contiguous from 0;
- portfolio: ``id,x0,rs0,margin,r_calc,c1,c2,benefit_table,
  benefit_table_2nd,q_table,q_table_2nd`` where table columns name files
  inside the run's table directory;
- scenario export: ``path,weight,t,bn,br,i``; triangle export:
  ``t,s,c_gross`` plus ``t,c_fixed``; block export: ``t,s,b_med,se_med``.

Every parse failure raises :class:`ParseError` carrying file, line and
column (1-based), so callers can report exact positions.  The run
configuration is one JSON document; command-line flags override single
fields.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .esg import McModelParams, TwoScenarioParams, deterministic_model, mc_model, two_scenario_model
from .policy_engine import CapRule, FirstOrderBasis, PolicyData, SecondOrderBasis
from .pricing import BuildingBlockMatrix
from .decomposition import CoefficientTriangle
from .term_structures import CurvePair, InflationSpread, ScenarioSet

MODEL_KINDS = ("deterministic", "two_scenario", "mc")


class ParseError(ValueError):
    """Input failure with file/line/column context (1-based positions)."""

    def __init__(self, path, line: int, column: int, reason: str):
        self.path = str(path)
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"{self.path}:{line}:{column}: {reason}")


def _read_text(path) -> str:
    """The file decoded as UTF-8; an unreadable file or an undecodable byte is a ParseError."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(path, 0, 0, f"cannot read file: {exc.strerror}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, exc.start) + 1
        column = len(data[line_start : exc.start].decode("utf-8")) + 1
        raise ParseError(
            path, line, column, f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})"
        ) from None


def _read_rows(path) -> list[tuple[int, list[str]]]:
    """CSV records with the physical line each starts on (a quoted cell may span lines)."""
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    rows, line = [], 1
    try:
        for row in reader:
            rows.append((line, row))
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(path, reader.line_num, 1, f"malformed CSV: {exc}") from None
    return rows


def _check_header(path, rows: list, expected: list[str]) -> None:
    if not rows:
        raise ParseError(path, 1, 1, "file is empty")
    header = [cell.strip() for cell in rows[0][1]]
    if header != expected:
        raise ParseError(path, 1, 1, f"header must be {','.join(expected)!r}, got {','.join(header)!r}")


def _cell_float(path, row: list[str], line: int, column: int) -> float:
    if column > len(row):
        raise ParseError(path, line, column, f"missing column {column}")
    try:
        value = float(row[column - 1])
    except ValueError:
        raise ParseError(path, line, column, f"not a number: {row[column - 1]!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, line, column, f"not a finite number: {row[column - 1]!r}")
    return value


def _cell_int(path, row: list[str], line: int, column: int) -> int:
    value = _cell_float(path, row, line, column)
    if value != int(value):
        raise ParseError(path, line, column, f"expected an integer, got {row[column - 1]!r}")
    return int(value)


def load_curve(path) -> CurvePair:
    """Read a ``t,pn,pr`` curve file into a :class:`CurvePair`."""
    rows = _read_rows(path)
    _check_header(path, rows, ["t", "pn", "pr"])
    pn: list[float] = []
    pr: list[float] = []
    for idx, (line, row) in enumerate(rows[1:]):
        if len(row) != 3:
            raise ParseError(path, line, len(row) + 1, f"expected 3 columns, got {len(row)}")
        t = _cell_int(path, row, line, 1)
        if t != idx:
            raise ParseError(path, line, 1, f"maturities must run 0,1,2,...; expected t={idx}, got {t}")
        pn_t = _cell_float(path, row, line, 2)
        pr_t = _cell_float(path, row, line, 3)
        if idx == 0 and (pn_t != 1.0 or pr_t != 1.0):
            raise ParseError(path, line, 2, "row t=0 must read 0,1,1")
        for column, price in ((2, pn_t), (3, pr_t)):
            if price <= 0.0:
                raise ParseError(path, line, column, f"ZCB price must be positive, got {price}")
            if math.isinf(1.0 / price):
                raise ParseError(path, line, column, f"ZCB price {price!r} is too small: 1/price overflows")
        pn.append(pn_t)
        pr.append(pr_t)
    if len(pn) < 2:
        raise ParseError(path, len(rows) + 1, 1, "curve needs maturities t = 0 and t = 1 at least")
    return CurvePair(pn=np.array(pn), pr=np.array(pr))


def load_age_table(path, value_column: str) -> np.ndarray:
    """Read an ``age,q`` or ``age,k`` table; ages must be contiguous from 0."""
    rows = _read_rows(path)
    _check_header(path, rows, ["age", value_column])
    values: list[float] = []
    for idx, (line, row) in enumerate(rows[1:]):
        if len(row) != 2:
            raise ParseError(path, line, len(row) + 1, f"expected 2 columns, got {len(row)}")
        age = _cell_int(path, row, line, 1)
        if age != idx:
            raise ParseError(path, line, 1, f"ages must run 0,1,2,...; expected {idx}, got {age}")
        values.append(_cell_float(path, row, line, 2))
    if not values:
        raise ParseError(path, 2, 1, "table has no rows")
    return np.array(values)


PORTFOLIO_COLUMNS = [
    "id",
    "x0",
    "rs0",
    "margin",
    "r_calc",
    "c1",
    "c2",
    "benefit_table",
    "benefit_table_2nd",
    "q_table",
    "q_table_2nd",
]


def load_portfolio(path, tables_dir) -> list[PolicyData]:
    """Read a portfolio file, resolving table columns inside ``tables_dir``.

    Rows that name the same tables and parameters share one basis object,
    built (and validated) the first time a row needs it.
    """
    rows = _read_rows(path)
    _check_header(path, rows, PORTFOLIO_COLUMNS)
    tables_dir = Path(tables_dir)
    cache: dict[tuple[str, str], np.ndarray] = {}
    first_order: dict[tuple, FirstOrderBasis] = {}
    second_order: dict[tuple, SecondOrderBasis] = {}

    def table(name: str, column: str, line: int, col_idx: int) -> np.ndarray:
        key = (name, column)
        if key not in cache:
            target = tables_dir / name
            if not target.is_file():
                raise ParseError(path, line, col_idx, f"table file not found: {target}")
            cache[key] = load_age_table(target, column)
        return cache[key]

    policies: list[PolicyData] = []
    for line, row in rows[1:]:
        if len(row) != len(PORTFOLIO_COLUMNS):
            raise ParseError(
                path, line, len(row) + 1, f"expected {len(PORTFOLIO_COLUMNS)} columns, got {len(row)}"
            )
        policy_id = row[0].strip()
        x0 = _cell_int(path, row, line, 2)
        rs0 = _cell_float(path, row, line, 3)
        margin = _cell_float(path, row, line, 4)
        r_calc = _cell_float(path, row, line, 5)
        c1 = _cell_float(path, row, line, 6)
        c2 = _cell_float(path, row, line, 7)
        k1, k2, q1, q2 = (row[i].strip() for i in range(7, 11))
        fo_key, so_key = (k1, q1, r_calc, c1, margin), (k2, q2, c2)
        try:
            if fo_key not in first_order:
                first_order[fo_key] = FirstOrderBasis(
                    k1=table(k1, "k", line, 8),
                    q1=table(q1, "q", line, 10),
                    r_calc=r_calc,
                    c1=c1,
                    margin=margin,
                )
            if so_key not in second_order:
                second_order[so_key] = SecondOrderBasis(
                    k2=table(k2, "k", line, 9),
                    q2=table(q2, "q", line, 11),
                    c2=c2,
                )
            fo, so = first_order[fo_key], second_order[so_key]
            policies.append(PolicyData(x0=x0, fo=fo, so=so, rs0=rs0, id=policy_id))
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(path, line, 1, f"policy {policy_id!r}: {exc}") from exc
    return policies


@dataclass(frozen=True)
class ModelConfig:
    """Scenario-model selection: kind plus its module parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        # Validate parameter invariants up front, before any computation.
        if self.kind == "two_scenario":
            self.two_scenario_params()
        elif self.kind == "mc":
            self.mc_params(seed=0)

    def two_scenario_params(self) -> TwoScenarioParams:
        return TwoScenarioParams(
            cn1=float(self.params.get("cn1", 0.5)),
            cr1=float(self.params.get("cr1", 1.0)),
            p1=float(self.params.get("p1", 0.5)),
        )

    def mc_params(self, seed: int) -> McModelParams:
        return McModelParams(
            n_paths=_integer(self.params.get("n_paths", 1000), "n_paths"),
            vol_n=float(self.params.get("vol_n", 0.01)),
            vol_r=float(self.params.get("vol_r", 0.005)),
            corr=float(self.params.get("corr", 0.0)),
            seed=seed,
        )

    def build(self, curve: CurvePair, seed: int) -> ScenarioSet:
        if self.kind == "deterministic":
            return deterministic_model(curve)
        if self.kind == "two_scenario":
            return two_scenario_model(curve, self.two_scenario_params())
        return mc_model(curve, self.mc_params(seed))

    def describe(self) -> dict:
        return {"kind": self.kind, **{k: self.params[k] for k in sorted(self.params)}}


@dataclass(frozen=True)
class PremiumPathConfig:
    """Inputs of the premium-path comparison (nominal vs real rate convention)."""

    policy_id: str
    r_nominal: float = 0.01
    r_real: float = -0.01
    inflation_factor: float = 101.0 / 99.0

    def __post_init__(self) -> None:
        if not self.inflation_factor > 0.0:
            raise ValueError("inflation_factor must be positive")
        if not (self.r_nominal > -1.0 and self.r_real > -1.0):
            raise ValueError("rates must exceed -1")


@dataclass(frozen=True)
class RunConfig:
    """One valuation run: input files, model, spread, cap, seed, outputs."""

    curves: Path
    portfolio: Path
    tables_dir: Path
    model: ModelConfig
    model_b: Optional[ModelConfig] = None
    spread: InflationSpread = InflationSpread()
    cap: Optional[CapRule] = None
    seed: int = 0
    out_dir: Path = Path("out")
    tolerance: float = 1e-9
    premium_path: Optional[PremiumPathConfig] = None

    def __post_init__(self) -> None:
        for label, target in (("curves", self.curves), ("portfolio", self.portfolio)):
            if not Path(target).is_file():
                raise ValueError(f"{label} file not found: {target}")
        if not Path(self.tables_dir).is_dir():
            raise ValueError(f"tables_dir is not a directory: {self.tables_dir}")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")


def load_config(path, **overrides) -> RunConfig:
    """Read a JSON run configuration; keyword overrides replace fields.

    Relative input paths are resolved against the config file's
    directory. Supported overrides: ``seed``, ``model`` (kind name),
    ``out_dir``, ``tolerance``.
    """
    path = Path(path)
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.colno, f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(path, 1, 1, "invalid JSON: nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ParseError(path, 1, 1, "config must be a JSON object")

    base = path.parent

    def resolve(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    try:
        model = _model_from(raw.get("model", {"kind": "deterministic"}))
        if overrides.get("model"):
            model = _model_from({"kind": overrides["model"], **_params_for(raw, overrides["model"])})
        model_b = _model_from(raw["model_b"]) if "model_b" in raw else None
        spread_raw = _object(raw.get("spread", {}), "spread")
        spread = InflationSpread(
            med_spread=float(spread_raw.get("med", 0.0)),
            cost_spread=float(spread_raw.get("cost", 0.0)),
        )
        cap = None
        if raw.get("cap") is not None:
            cap_raw = _object(raw["cap"], "cap")
            cap = CapRule(
                abs_increase=float(cap_raw.get("abs_increase", 0.05)),
                inflation_multiple=float(cap_raw.get("inflation_multiple", 2.0)),
            )
        premium_path = None
        if raw.get("premium_path") is not None:
            pp = _object(raw["premium_path"], "premium_path")
            premium_path = PremiumPathConfig(
                policy_id=str(pp["policy_id"]),
                r_nominal=float(pp.get("r_nominal", 0.01)),
                r_real=float(pp.get("r_real", -0.01)),
                inflation_factor=float(pp.get("inflation_factor", 101.0 / 99.0)),
            )
        config = RunConfig(
            curves=resolve(raw["curves"]),
            portfolio=resolve(raw["portfolio"]),
            tables_dir=resolve(raw.get("tables_dir", ".")),
            model=model,
            model_b=model_b,
            spread=spread,
            cap=cap,
            seed=_integer(overrides.get("seed", raw.get("seed", 0)), "seed"),
            out_dir=Path(overrides.get("out_dir", raw.get("out_dir", "out"))),
            tolerance=float(overrides.get("tolerance", raw.get("tolerance", 1e-9))),
            premium_path=premium_path,
        )
    except KeyError as exc:
        raise ParseError(path, 1, 1, f"missing config field: {exc.args[0]}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(path, 1, 1, str(exc)) from exc
    return config


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} section must be a JSON object, got {value!r}")
    return value


def _integer(value, name: str) -> int:
    """A JSON integer; integral floats such as 1e3 pass, fractions, booleans and strings do not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _model_from(raw: dict) -> ModelConfig:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ValueError("model section must be an object with a 'kind' field")
    params = {k: v for k, v in raw.items() if k != "kind"}
    return ModelConfig(kind=str(raw["kind"]), params=params)


def _params_for(raw: dict, kind: str) -> dict:
    """Parameters for a --model override: reuse the config's section if it matches."""
    section = raw.get("model", {})
    if isinstance(section, dict) and section.get("kind") == kind:
        return {k: v for k, v in section.items() if k != "kind"}
    return {}


def _fmt(x: float) -> str:
    """Full binary precision, 17 significant digits (scenario export contract)."""
    return f"{x:.17g}"


def _fmt_short(x: float) -> str:
    """Shortest decimal that round-trips; integers without a trailing .0."""
    x = float(x)
    return str(int(x)) if x == int(x) and abs(x) < 1e16 else repr(x)


def write_curve(path, curve: CurvePair) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "pn", "pr"])
        for t in range(curve.horizon + 1):
            writer.writerow([t, _fmt_short(curve.pn[t]), _fmt_short(curve.pr[t])])


def write_age_table(path, values, value_column: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["age", value_column])
        for age, value in enumerate(values):
            writer.writerow([age, _fmt_short(value)])


def write_scenarios(path, s: ScenarioSet) -> None:
    """Scenario export: one row per (path, t), full 17-digit precision."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        # CRLF rows like the csv.writer exports; one path at a time, from
        # Python floats, so no whole-file array or text is built.
        handle.write("path,weight,t,bn,br,i\r\n")
        for k, w in enumerate(s.weights.tolist()):
            rows = zip(s.bn[k].tolist(), s.br[k].tolist(), s.i[k].tolist())
            handle.writelines(
                f"{k},{w:.17g},{t},{bn:.17g},{br:.17g},{i:.17g}\r\n" for t, (bn, br, i) in enumerate(rows)
            )


def write_triangle(gross_path, fixed_path, tri: CoefficientTriangle) -> None:
    """Triangle export: ``t,s,c_gross`` rows plus a ``t,c_fixed`` file."""
    with open(gross_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "s", "c_gross"])
        for t in range(tri.horizon + 1):
            row = tri.coeffs[t]
            for s in range(t + 1):
                writer.writerow([t, s, _fmt(row[s])])
    with open(fixed_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "c_fixed"])
        for t in range(tri.horizon + 1):
            writer.writerow([t, _fmt(tri.fixed[t])])


def write_blocks(path, blocks: BuildingBlockMatrix) -> None:
    """Block export: ``t,s,b_med,se_med``; the SE column is empty for exact sets."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "s", "b_med", "se_med"])
        for t in range(blocks.horizon + 1):
            for s in range(t + 1):
                se = "" if blocks.se_med is None else _fmt(blocks.se_med[t, s])
                writer.writerow([t, s, _fmt(blocks.med[t, s]), se])
