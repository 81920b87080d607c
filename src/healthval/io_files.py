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

Every export writes its header, then CRLF-ended rows whose integer cells
are plain decimals and whose float cells are ``%.17g`` (17 significant
digits, so every float reads back exactly).  The scenario export's ``i``
is the row's ``bn / br``.  ``se_med`` is the i.i.d. per-entry standard
error of ``b_med`` (see :class:`~healthval.pricing.BuildingBlockMatrix`),
an empty cell for exact (unsampled) scenario sets.  These are the bytes
``csv.writer`` makes of the same cells.  The writers stream, one
scenario path or one triangle row t per write (the short ``t,c_fixed``
file in one), so no whole-file text is built.

Every parse failure raises :class:`ParseError` carrying file, line and
column (1-based), so callers can report exact positions.  The run
configuration is one JSON document; command-line flags override single
fields.  Its schema lives here only: each section is declared once, with
a reader per field for the field's JSON type and the class the section
builds, which holds the defaults; the report's ``config`` echo is built
from the same declarations.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .esg import McModelParams, TwoScenarioParams, deterministic_model, mc_model, two_scenario_model
from .policy_engine import CapRule, FirstOrderBasis, PolicyData, SecondOrderBasis, _FieldError
from .pricing import BuildingBlockMatrix
from .decomposition import CoefficientTriangle
from .term_structures import CurvePair, InflationSpread, ScenarioSet

#: Most scenario entries (paths x dates) a configured MC model may ask for.
#: A run holds about four float arrays of that size at its peak (some
#: 33 bytes per entry: the peak RSS of ``value`` on ``config_inpatient.json``
#: at 20 000 and at 60 000 paths, 105.6 and 239.3 MB), so the limit is about
#: 1.0 GB; the production size of 10 000 paths over 101 dates is 1 010 000.
MAX_PATH_DATES = 30_000_000


class ParseError(ValueError):
    """Input failure with file/line/column context (1-based positions)."""

    def __init__(self, path, line: int, column: int, reason: str):
        self.path = str(path)
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"{self.path}:{line}:{column}: {reason}")


def _read_text(path) -> str:
    """The file decoded as UTF-8; an unreadable file or an undecodable byte is a ParseError.

    An unreadable file is cited at 1:1, its start.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(path, 1, 1, f"cannot read file: {exc.strerror}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, exc.start) + 1
        column = len(data[line_start : exc.start].decode("utf-8")) + 1
        raise ParseError(
            path, line, column, f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})"
        ) from None


def _read_rows(path) -> tuple[list[tuple[int, list[str]]], int]:
    """CSV records with the physical line each starts on (a quoted cell may span lines).

    Also returns the line after the last one read, where a missing record belongs.
    """
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    rows, line = [], 1
    try:
        for row in reader:
            rows.append((line, row))
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(path, reader.line_num, 1, f"malformed CSV: {exc}") from None
    return rows, line


def _check_header(path, rows: list, expected: list[str]) -> None:
    if not rows:
        raise ParseError(path, 1, 1, "file is empty")
    header = [cell.strip() for cell in rows[0][1]]
    if header != expected:
        raise ParseError(path, 1, 1, f"header must be {','.join(expected)!r}, got {','.join(header)!r}")


def _cell_float(path, row: list[str], line: int, column: int) -> float:
    """The number in cell ``column`` of a row whose width the caller has checked."""
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
    rows, end = _read_rows(path)
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
            raise ParseError(path, line, 2 if pn_t != 1.0 else 3, "row t=0 must read 0,1,1")
        for column, price in ((2, pn_t), (3, pr_t)):
            if price <= 0.0:
                raise ParseError(path, line, column, f"ZCB price must be positive, got {price}")
            if math.isinf(1.0 / price):
                raise ParseError(path, line, column, f"ZCB price {price!r} is too small: 1/price overflows")
        pn.append(pn_t)
        pr.append(pr_t)
    if len(pn) < 2:
        raise ParseError(path, end, 1, "curve needs maturities t = 0 and t = 1 at least")
    return CurvePair(pn=np.array(pn), pr=np.array(pr))


def load_age_table(path, value_column: str) -> np.ndarray:
    """Read an ``age,q`` or ``age,k`` table; ages must be contiguous from 0.

    A value a basis would reject is cited at its own cell: a q outside
    [0, 1], a last q other than 1, a negative k.
    """
    rows, end = _read_rows(path)
    _check_header(path, rows, ["age", value_column])
    values: list[float] = []
    for idx, (line, row) in enumerate(rows[1:]):
        if len(row) != 2:
            raise ParseError(path, line, len(row) + 1, f"expected 2 columns, got {len(row)}")
        age = _cell_int(path, row, line, 1)
        if age != idx:
            raise ParseError(path, line, 1, f"ages must run 0,1,2,...; expected {idx}, got {age}")
        value = _cell_float(path, row, line, 2)
        if value_column == "q" and not 0.0 <= value <= 1.0:
            raise ParseError(path, line, 2, f"termination probability must lie in [0, 1], got {value!r}")
        if value_column == "k" and value < 0.0:
            raise ParseError(path, line, 2, f"benefit must be nonnegative, got {value!r}")
        values.append(value)
    if not values:
        raise ParseError(path, end, 1, "table has no rows")
    if value_column == "q" and values[-1] != 1.0:
        raise ParseError(
            path, rows[-1][0], 2, f"termination probability at the terminal age must be 1, got {values[-1]!r}"
        )
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
    built (and validated) the first time a row needs it.  A value the
    basis or the policy rejects is cited at its own cell, and a benefit
    table that covers other ages than its termination table at the
    benefit table's cell (the termination table's last age is fixed by
    its q = 1).  A rejection that no one cell explains (first- and
    second-order tables that end at different ages) is cited at the
    row's first cell.
    """
    rows, _ = _read_rows(path)
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
        except _FieldError as exc:
            column = PORTFOLIO_COLUMNS.index(exc.field) + 1
            raise ParseError(path, line, column, f"policy {policy_id!r}: {exc}") from exc
        except ValueError as exc:
            raise ParseError(path, line, 1, f"policy {policy_id!r}: {exc}") from exc
    return policies


def _number(value, name: str) -> float:
    """A finite JSON number, as a float; booleans, strings, NaN and infinities are errors."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """A JSON integer; an integral float such as 2e3 passes as its int."""
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _seed(value, name: str) -> int:
    """A JSON integer that fits an unsigned 64-bit seed; read at the top level, before any model uses it."""
    value = _integer(value, name)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must fit an unsigned 64-bit integer, got {value}")
    return value


def _string(value, name: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _path(value, name: str) -> Path:
    return Path(_string(value, name))


@dataclass(frozen=True)
class _Section:
    """One JSON object of the config: a reader per field and the class the fields build.

    A reader takes the field's value and its dotted name and returns the
    parsed value, or raises a ValueError that names the field; a section's
    :meth:`read` is a reader too.  A field whose reader is None is defined
    here but read by the caller.  Each field fills the keyword of ``build``
    of its own name unless ``keywords`` renames it; an absent field keeps
    the default of ``build``, and a field the section does not define is an
    error.  A ValueError of ``build`` (a value out of range) is raised
    again with the section's name in front, so ``model`` and ``model_b``
    errors differ.
    """

    readers: dict
    build: Callable = dict
    keywords: dict = field(default_factory=dict)
    required: tuple = ()

    def read(self, value, name: str, **extra):
        """``value`` as section ``name`` ("" for the top level); ``extra`` goes to ``build`` as is."""
        label = name or "top-level"
        if not isinstance(value, dict):
            raise ValueError(f"{label} section must be a JSON object, got {value!r}")
        prefix = f"{name}." if name else ""
        for key in value:
            if key not in self.readers:
                raise ValueError(f"{label} section has no field {key!r}; it defines {', '.join(self.readers)}")
        for key in self.required:
            if key not in value:
                raise ValueError(f"{prefix}{key} is required")
        fields = {
            self.keywords.get(key, key): read(value[key], prefix + key)
            for key, read in self.readers.items()
            if key in value and read is not None
        }
        try:
            return self.build(**fields, **extra)
        except ValueError as exc:
            raise ValueError(f"{label}: {exc}") from exc

    def echo(self, built) -> dict:
        """Every field of ``built`` under its JSON name, defaults included."""
        return {key: getattr(built, self.keywords.get(key, key)) for key in self.readers}


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


_SPREAD = _Section({"med": _number, "cost": _number}, InflationSpread, {"med": "med_spread", "cost": "cost_spread"})
_CAP = _Section({"abs_increase": _number, "inflation_multiple": _number}, CapRule)
_PREMIUM_PATH = _Section(
    {"policy_id": _string, "r_nominal": _number, "r_real": _number, "inflation_factor": _number},
    PremiumPathConfig,
    required=("policy_id",),
)
#: Model sections by kind; each builds its model's parameter object (None
#: for the deterministic model), an MC model's with the run's seed.
_MODELS = {
    "deterministic": _Section({"kind": None}, lambda: None),
    "two_scenario": _Section({"kind": None, "cn1": _number, "cr1": _number, "p1": _number}, TwoScenarioParams),
    "mc": _Section(
        {"kind": None, "n_paths": _integer, "vol_n": _number, "vol_r": _number, "corr": _number}, McModelParams
    ),
}
MODEL_KINDS = tuple(_MODELS)
#: The top level; the model sections are read once the seed is known.
_RUN = _Section(
    {
        "curves": _path,
        "portfolio": _path,
        "tables_dir": _path,
        "model": None,
        "model_b": None,
        "spread": _SPREAD.read,
        "cap": _CAP.read,
        "seed": _seed,
        "out_dir": _path,
        "tolerance": _number,
        "premium_path": _PREMIUM_PATH.read,
    },
    required=("curves", "portfolio"),
)


@dataclass(frozen=True)
class ModelConfig:
    """A scenario model: its kind, its parameters as written and their parameter object.

    ``written`` is the section without its kind, echoed in reports as the
    config wrote it; ``params`` is the TwoScenarioParams or McModelParams
    read from it, None for the deterministic model.  ``section`` is the
    config key the model came from, for error messages.
    """

    kind: str = "deterministic"
    written: dict = field(default_factory=dict)
    params: object = None
    section: str = "model"

    @classmethod
    def read(cls, value, section: str, seed: int) -> ModelConfig:
        """The model of config section ``section``; ``seed`` seeds an MC model."""
        kind = value.get("kind") if isinstance(value, dict) else None
        if kind not in MODEL_KINDS:
            raise ValueError(f"{section}.kind must be one of {', '.join(MODEL_KINDS)}; {section} reads {value!r}")
        params = _MODELS[kind].read(value, section, **({"seed": seed} if kind == "mc" else {}))
        return cls(kind, {k: v for k, v in value.items() if k != "kind"}, params, section)

    def build(self, curve: CurvePair) -> ScenarioSet:
        if self.kind == "deterministic":
            return deterministic_model(curve)
        if self.kind == "two_scenario":
            return two_scenario_model(curve, self.params)
        check_path_dates(self.params.n_paths, curve.horizon, f"{self.section}.n_paths")
        return mc_model(curve, self.params)

    def echo(self) -> dict:
        return {"kind": self.kind, **self.written}


def check_path_dates(n_paths: int, horizon: int, name: str) -> None:
    """Reject a scenario set of more than MAX_PATH_DATES entries before it is allocated."""
    entries = n_paths * (horizon + 1)
    if entries > MAX_PATH_DATES:
        raise ValueError(
            f"{name} = {n_paths}: {n_paths} paths x {horizon + 1} dates = {entries} scenario "
            f"entries, above the limit of {MAX_PATH_DATES}"
        )


@dataclass(frozen=True)
class RunConfig:
    """One valuation run: input files, model, spread, cap, seed, outputs."""

    curves: Path
    portfolio: Path
    tables_dir: Path
    model: ModelConfig = ModelConfig()
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

    def echo(self) -> dict:
        """The ``config`` record of every report: what makes two runs' Best Estimates comparable.

        Model parameters appear as written, spread and cap as parsed with
        their defaults filled in; ``out_dir`` and ``premium_path`` are not
        echoed.
        """
        return {
            "curves": str(self.curves),
            "portfolio": str(self.portfolio),
            "tables_dir": str(self.tables_dir),
            "model": self.model.echo(),
            "model_b": self.model_b and self.model_b.echo(),
            "spread": _SPREAD.echo(self.spread),
            "cap": self.cap and _CAP.echo(self.cap),
            "seed": self.seed,
            "tolerance": self.tolerance,
        }


def load_config(path, *, model=None, seed=None, out_dir=None, tolerance=None) -> RunConfig:
    """Read a JSON run configuration.

    Relative input paths resolve against the config file's directory,
    which is also the default ``tables_dir``.  ``seed``, ``out_dir`` and
    ``tolerance`` replace the top-level fields and are read like them;
    ``model`` names a model kind to run instead of the ``model``
    section's, with that section's parameters only if the kinds match.  A
    None leaves the config as written.
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
    try:
        flags = {"seed": seed, "out_dir": out_dir, "tolerance": tolerance}
        fields = _RUN.read({**raw, **{k: v for k, v in flags.items() if v is not None}}, "")
        seed = fields.get("seed", RunConfig.seed)
        for name in ("model", "model_b"):
            if name in raw:
                fields[name] = ModelConfig.read(raw[name], name, seed)
        if model is not None and model != fields.get("model", RunConfig.model).kind:
            fields["model"] = ModelConfig.read({"kind": model}, "model", seed)
        fields.setdefault("tables_dir", Path())
        for name in ("curves", "portfolio", "tables_dir"):
            fields[name] = path.parent / fields[name]
        return RunConfig(**fields)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(path, 1, 1, str(exc)) from exc


def _write_rows(handle, prefix: str, tails: list[str], *columns) -> None:
    """Write one row ``prefix + tails[j]`` per entry j of ``columns``, in one ``%`` operation.

    Each tail holds one ``%.17g`` per column; the cells are the columns'
    entries interleaved as Python floats, so the only per-number work is
    the float formatting itself.
    """
    cells = np.column_stack(columns).ravel().tolist()
    handle.write((prefix + prefix.join(tails)) % tuple(cells))


def write_scenarios(path, s: ScenarioSet) -> None:
    """Scenario export: one row per (path, t), one path at a time; the ``i`` cell is ``bn / br``."""
    tails = [f"{t},%.17g,%.17g,%.17g\r\n" for t in range(s.horizon + 1)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("path,weight,t,bn,br,i\r\n")
        for k, w in enumerate(s.weights.tolist()):
            _write_rows(handle, f"{k},{w:.17g},", tails, s.bn[k], s.br[k], s.bn[k] / s.br[k])


def _write_lower(path, header: str, cells: str, *matrices: np.ndarray) -> None:
    """``t,s,<cells>`` rows over the lower triangles of square ``matrices``, one t at a time."""
    dates = range(len(matrices[0]))
    tails = [f"{s},{cells}\r\n" for s in dates]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(header)
        for t in dates:
            _write_rows(handle, f"{t},", tails[: t + 1], *(matrix[t, : t + 1] for matrix in matrices))


def write_triangle(gross_path, fixed_path, tri: CoefficientTriangle) -> None:
    """Triangle export: ``t,s,c_gross`` rows, one t at a time, plus a ``t,c_fixed`` file."""
    _write_lower(gross_path, "t,s,c_gross\r\n", "%.17g", tri.coeffs)
    with open(fixed_path, "w", newline="", encoding="utf-8") as handle:
        handle.write("t,c_fixed\r\n")
        _write_rows(handle, "", [f"{t},%.17g\r\n" for t in range(tri.horizon + 1)], tri.fixed)


def write_blocks(path, blocks: BuildingBlockMatrix) -> None:
    """Block export: ``t,s,b_med,se_med`` rows, one t at a time.

    ``se_med`` is the i.i.d. per-entry standard error of ``b_med`` (see
    :class:`~healthval.pricing.BuildingBlockMatrix`); the cell is empty
    for exact sets.
    """
    if blocks.se_med is None:
        _write_lower(path, "t,s,b_med,se_med\r\n", "%.17g,", blocks.med)
    else:
        _write_lower(path, "t,s,b_med,se_med\r\n", "%.17g,%.17g", blocks.med, blocks.se_med)
