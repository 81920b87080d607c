"""End-to-end checks of the command-line surface via its entry point."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from healthval import cli, reporting

from conftest import FIXTURES


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "healthval", *args], capture_output=True, text=True
    )


def stderr_record(result) -> dict:
    return json.loads(result.stderr)["error"]


class TestValue:
    def test_toy_run_matches_worked_example(self, tmp_path):
        result = run_cli("value", "--config", str(FIXTURES / "config_toy.json"), "--out", str(tmp_path))
        assert result.returncode == 0, result.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        be = report["best_estimate"]
        expected = -10 - 15 * 1.0 + 5 * 0.98 - 30 * 1.0 + 15 * (1 / 0.98) * 0.95 + 5 * 0.95
        assert be["decomposition"] == pytest.approx(expected, abs=1e-12)
        assert be["routes_agree"] is True
        for name in ("report.txt", "contributions.svg", "triangle_gross.csv", "blocks.csv"):
            assert (tmp_path / name).is_file()

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            result = run_cli("value", "--config", str(FIXTURES / "config_toy.json"), "--out", str(out))
            assert result.returncode == 0
        for name in ("report.json", "report.txt", "contributions.svg", "blocks.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_malformed_curve_row_cites_line_two(self, tmp_path):
        bad_curve = tmp_path / "curve.csv"
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "curves": str(bad_curve),
                    "portfolio": str(FIXTURES / "portfolio_toy.csv"),
                    "tables_dir": str(FIXTURES / "tables"),
                    "model": {"kind": "deterministic"},
                    "out_dir": str(tmp_path / "out"),
                }
            )
        )
        # A 200 000-character cell exceeds csv.field_size_limit(): the reader stops at line 2.
        for row, column in (("1,0.98", 3), ("0,nan,1", 2), ("0" * 200_000 + ",1,1", 1)):
            bad_curve.write_text(f"t,pn,pr\n{row}\n")
            result = run_cli("value", "--config", str(config))
            assert result.returncode == 2
            record = stderr_record(result)
            assert record["kind"] == "parse"
            assert (record["line"], record["column"]) == (2, column)

    @pytest.mark.parametrize(
        "name", ["config_toy.json", "curves_toy.csv", "portfolio_toy.csv", "tables/toy_k1.csv"]
    )
    def test_non_utf8_byte_cites_its_file_line_and_column(self, tmp_path, name):
        inputs = tmp_path / "inputs"
        shutil.copytree(FIXTURES, inputs, ignore=shutil.ignore_patterns("out"))
        target = inputs / name
        lines = target.read_bytes().split(b"\n")
        lines[1] = lines[1][:3] + b"\xe9" + lines[1][3:]  # Latin-1 e-acute at line 2, column 4
        target.write_bytes(b"\n".join(lines))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["value", "--config", str(inputs / "config_toy.json"), "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(stderr.getvalue())["error"]
        assert record["kind"] == "parse"
        assert (record["file"], record["line"], record["column"]) == (str(target), 2, 4)

    def test_missing_config_is_input_error(self, tmp_path):
        result = run_cli("value", "--config", str(tmp_path / "none.json"))
        assert result.returncode == 2

    def test_unallocatable_path_count_is_input_error(self, tmp_path, fixtures_dir):
        # 10**15 paths ask numpy for 21 PiB, far beyond the virtual address
        # space a process is given, so the allocation fails at once and
        # nothing is allocated.
        payload = json.loads((fixtures_dir / "config_toy.json").read_text())
        for key in ("curves", "portfolio", "tables_dir"):
            payload[key] = str(fixtures_dir / payload[key])
        payload["model"] = {"kind": "mc", "n_paths": 10**15}
        payload["out_dir"] = str(tmp_path / "out")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        result = run_cli("value", "--config", str(config))
        assert result.returncode == 2, result.stderr
        assert stderr_record(result)["kind"] == "input"

    def test_seed_flag_changes_mc_report(self, tmp_path):
        args = ["value", "--config", str(FIXTURES / "config_inpatient.json"), "--model", "mc"]
        r1 = run_cli(*args, "--seed", "1", "--out", str(tmp_path / "s1"))
        r2 = run_cli(*args, "--seed", "2", "--out", str(tmp_path / "s2"))
        assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
        be1 = json.loads((tmp_path / "s1/report.json").read_text())["best_estimate"]["oracle"]
        be2 = json.loads((tmp_path / "s2/report.json").read_text())["best_estimate"]["oracle"]
        assert be1 != be2


class TestSimulate:
    def test_cap_increases_best_estimate(self, tmp_path):
        base = run_cli(
            "simulate", "--config", str(FIXTURES / "config_inpatient.json"), "--out", str(tmp_path / "u")
        )
        capped = run_cli(
            "simulate",
            "--cap",
            "--config",
            str(FIXTURES / "config_inpatient.json"),
            "--out",
            str(tmp_path / "c"),
        )
        assert base.returncode == 0 and capped.returncode == 0, base.stderr + capped.stderr
        be_u = json.loads((tmp_path / "u/simulate.json").read_text())["best_estimate"]
        data_c = json.loads((tmp_path / "c/simulate.json").read_text())
        assert data_c["cap_applied"] is True
        assert data_c["best_estimate"] >= be_u - 1e-12 * abs(be_u)
        assert (tmp_path / "u/scenarios.csv").is_file()

    def test_cap_flag_without_config_section_fails(self, tmp_path):
        result = run_cli(
            "simulate", "--cap", "--config", str(FIXTURES / "config_toy.json"), "--out", str(tmp_path)
        )
        assert result.returncode == 2
        assert "cap" in stderr_record(result)["message"]


class TestCompare:
    def test_deterministic_vs_demo_two_scenario(self, tmp_path):
        result = run_cli("compare", "--config", str(FIXTURES / "config_toy.json"), "--out", str(tmp_path))
        assert result.returncode == 0, result.stderr
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["delayed_block_ratio_2_1"] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert report["sweep"]["exhibits_above_10x"] is True
        assert report["sweep"]["exhibits_below_0p1x"] is True
        assert (tmp_path / "blocks_a.csv").is_file() and (tmp_path / "blocks_b.csv").is_file()

    def test_identical_models_have_zero_deltas(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "curves": str(FIXTURES / "curves_toy.csv"),
                    "portfolio": str(FIXTURES / "portfolio_toy.csv"),
                    "tables_dir": str(FIXTURES / "tables"),
                    "model": {"kind": "deterministic"},
                    "model_b": {"kind": "deterministic"},
                    "out_dir": str(tmp_path / "out"),
                }
            )
        )
        result = run_cli("compare", "--config", str(config))
        assert result.returncode == 0, result.stderr
        report = json.loads((tmp_path / "out/compare.json").read_text())
        assert report["be_delta"] == 0.0
        assert report["max_block_delta"] == 0.0
        assert report["delayed_block_ratio_2_1"] == 1.0

    def test_sweep_block_price_increases_as_nominal_tilt_shrinks(self, tmp_path):
        result = run_cli("compare", "--config", str(FIXTURES / "config_toy.json"), "--out", str(tmp_path))
        assert result.returncode == 0
        entries = json.loads((tmp_path / "compare.json").read_text())["sweep"]["entries"]
        ladder = {
            e["cn1"]: e["delayed_block_price"]
            for e in entries
            if e["direction"] == "inflation-spike" and e["cn1"] in (0.5, 0.1, 0.01)
        }
        assert ladder[0.01] > ladder[0.1] > ladder[0.5]

    def test_missing_model_b_is_input_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "curves": str(FIXTURES / "curves_toy.csv"),
                    "portfolio": str(FIXTURES / "portfolio_toy.csv"),
                    "tables_dir": str(FIXTURES / "tables"),
                    "model": {"kind": "deterministic"},
                    "out_dir": str(tmp_path / "out"),
                }
            )
        )
        result = run_cli("compare", "--config", str(config))
        assert result.returncode == 2
        assert "model_b" in stderr_record(result)["message"]


class TestPremiumPath:
    def test_shipped_fixture_passes_pv_check(self, tmp_path):
        result = run_cli(
            "premium-path", "--config", str(FIXTURES / "config_inpatient.json"), "--out", str(tmp_path)
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((tmp_path / "premium_path.json").read_text())
        assert report["present_value_relative_gap"] <= 1e-9
        assert report["initial_premium_relative_gap"] < 0.10
        assert (tmp_path / "premium_path.svg").is_file()

    def test_zero_inflation_same_rate_gives_identical_paths(self, tmp_path, fixtures_dir):
        config = tmp_path / "config.json"
        payload = json.loads((fixtures_dir / "config_inpatient.json").read_text())
        payload["curves"] = str(fixtures_dir / payload["curves"])
        payload["portfolio"] = str(fixtures_dir / payload["portfolio"])
        payload["tables_dir"] = str(fixtures_dir / payload["tables_dir"])
        payload["premium_path"] = {
            "policy_id": "inpatient-25",
            "r_nominal": 0.01,
            "r_real": 0.01,
            "inflation_factor": 1.0,
        }
        payload["out_dir"] = str(tmp_path / "out")
        config.write_text(json.dumps(payload))
        result = run_cli("premium-path", "--config", str(config))
        assert result.returncode == 0, result.stderr
        report = json.loads((tmp_path / "out/premium_path.json").read_text())
        nominal = np.array(report["premiums_nominal_convention"])
        real = np.array(report["premiums_real_convention"])
        assert np.max(np.abs(nominal - real)) <= 1e-9 * np.max(np.abs(nominal))

    def test_tiny_tolerance_fails_with_exit_three(self, tmp_path):
        result = run_cli(
            "premium-path",
            "--config",
            str(FIXTURES / "config_inpatient.json"),
            "--out",
            str(tmp_path),
            "--tolerance",
            "1e-18",
        )
        assert result.returncode == 3
        assert stderr_record(result)["kind"] == "tolerance"

    def test_numerical_breakdown_is_a_tolerance_failure(self, tmp_path, fixtures_dir):
        config = tmp_path / "config.json"
        payload = json.loads((fixtures_dir / "config_inpatient.json").read_text())
        for key in ("curves", "portfolio", "tables_dir"):
            payload[key] = str(fixtures_dir / payload[key])
        payload["premium_path"]["inflation_factor"] = 50.0
        payload["out_dir"] = str(tmp_path / "out")
        config.write_text(json.dumps(payload))
        result = run_cli("premium-path", "--config", str(config))
        assert result.returncode == 3
        record = stderr_record(result)
        assert record["kind"] == "tolerance"
        assert "real-rate premium identity" in record["message"]

    def test_zero_premium_policy_is_input_error(self, tmp_path, fixtures_dir):
        # toy_k2.csv holds zero benefits at every age: with no cost either,
        # every premium is 0 and the initial premium gap would be 0/0.
        portfolio = tmp_path / "portfolio.csv"
        portfolio.write_text(
            "id,x0,rs0,margin,r_calc,c1,c2,benefit_table,benefit_table_2nd,q_table,q_table_2nd\n"
            "free,0,0,0,0,0,0,toy_k2.csv,toy_k2.csv,toy_q.csv,toy_q.csv\n"
        )
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "curves": str(fixtures_dir / "curves_toy.csv"),
                    "portfolio": str(portfolio),
                    "tables_dir": str(fixtures_dir / "tables"),
                    "premium_path": {"policy_id": "free"},
                    "out_dir": str(tmp_path / "out"),
                }
            )
        )
        result = run_cli("premium-path", "--config", str(config))
        assert result.returncode == 2, result.stderr
        record = stderr_record(result)  # the whole of stderr: no warning ahead of it
        assert record["kind"] == "input"
        assert "'free'" in record["message"]
        assert not (tmp_path / "out/premium_path.json").exists()

    def test_reports_never_hold_nan_or_infinity(self):
        for value in (float("nan"), float("inf"), np.float64("-inf")):
            with pytest.raises(ValueError):
                reporting.dumps({"value": value})


class TestDemoNonuniqueness:
    def test_sweep_exhibits_both_limits(self, tmp_path):
        result = run_cli(
            "demo-nonuniqueness", "--config", str(FIXTURES / "config_toy.json"), "--out", str(tmp_path)
        )
        assert result.returncode == 0, result.stderr
        sweep = json.loads((tmp_path / "nonuniqueness.json").read_text())["sweep"]
        assert sweep["exhibits_above_10x"] and sweep["exhibits_below_0p1x"]
        assert sweep["all_calibrated"]
        directions = {e["direction"] for e in sweep["entries"]}
        assert directions == {"inflation-spike", "deflation-degenerate"}


def write_short_curve_config(tmp_path, tables_dir) -> Path:
    """A two-row curve (horizon 1) with an ``mc`` model_b; a policy entering
    at age 1 runs off within it, but the sweep prices the (t=2, s=1) block."""
    curve = tmp_path / "curve.csv"
    curve.write_text("t,pn,pr\n0,1,1\n1,0.98,1\n")
    portfolio = tmp_path / "portfolio.csv"
    portfolio.write_text(
        "id,x0,rs0,margin,r_calc,c1,c2,benefit_table,benefit_table_2nd,q_table,q_table_2nd\n"
        "toy-1,1,0,0,0,0,0,toy_k1.csv,toy_k2.csv,toy_q.csv,toy_q.csv\n"
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "curves": str(curve),
                "portfolio": str(portfolio),
                "tables_dir": str(tables_dir),
                "model": {"kind": "deterministic"},
                "model_b": {"kind": "mc", "n_paths": 10},
                "out_dir": str(tmp_path / "out"),
            }
        )
    )
    return config


class TestShortCurve:
    def test_sweep_needs_horizon_two(self, tmp_path, fixtures_dir):
        config = write_short_curve_config(tmp_path, fixtures_dir / "tables")
        for command in ("demo-nonuniqueness", "compare"):
            result = run_cli(command, "--config", str(config))
            assert result.returncode == 2, result.stderr
            record = stderr_record(result)
            assert record["kind"] == "input"
            assert "horizon >= 2" in record["message"]

    def test_compare_rejects_the_curve_before_pricing_any_blocks(self, tmp_path, fixtures_dir, monkeypatch):
        config = write_short_curve_config(tmp_path, fixtures_dir / "tables")
        calls = []
        original = cli.building_blocks

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "building_blocks", counting)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["compare", "--config", str(config)])
        assert code == 2
        record = json.loads(stderr.getvalue())["error"]
        assert record["kind"] == "input"
        assert "horizon >= 2" in record["message"]
        assert calls == []


#: Finite inputs whose prices overflow inside numpy: a curve price whose
#: reciprocal is finite but whose products are not, and a huge cost spread.
EXTREME_INPUTS = {
    "tiny-curve-price": {"curves": "t,pn,pr\n0,1,1\n1,1e-307,1\n2,1e-307,1\n"},
    "huge-cost-spread": {"spread": {"med": 0, "cost": 1e300}},
}
PRICING_COMMANDS = ("value", "value --model mc", "simulate", "compare")


class TestExtremeFiniteInput:
    @pytest.mark.parametrize(
        "case, command",
        [
            *(("tiny-curve-price", c) for c in (*PRICING_COMMANDS, "demo-nonuniqueness")),
            # The sweep ignores the configured spread, so it has nothing to reject.
            *(("huge-cost-spread", c) for c in PRICING_COMMANDS),
        ],
    )
    def test_overflow_ends_in_one_json_record(self, tmp_path, fixtures_dir, case, command):
        payload = json.loads((fixtures_dir / "config_toy.json").read_text())
        for key in ("curves", "portfolio", "tables_dir"):
            payload[key] = str(fixtures_dir / payload[key])
        changes = dict(EXTREME_INPUTS[case])
        if "curves" in changes:
            curve = tmp_path / "curve.csv"
            curve.write_text(changes.pop("curves"))
            payload["curves"] = str(curve)
        payload.update(changes, out_dir=str(tmp_path / "out"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        result = run_cli(*command.split(), "--config", str(config))
        assert result.returncode == 2, result.stderr
        record = stderr_record(result)  # the whole of stderr: no warning ahead of it
        assert record["kind"] == "input"


class TestCalibrateCheck:
    def test_all_models_calibrate(self, tmp_path):
        for model in ("deterministic", "two_scenario", "mc"):
            result = run_cli(
                "calibrate-check",
                "--config",
                str(FIXTURES / "config_toy.json"),
                "--model",
                model,
                "--out",
                str(tmp_path / model),
                "--tolerance",
                "1e-12",
            )
            assert result.returncode == 0, result.stderr
            report = json.loads((tmp_path / model / "calibration.json").read_text())
            assert report["passed"] is True


#: Every top-level section a run configuration may hold.
CONFIG_SECTIONS = (
    "curves", "portfolio", "tables_dir", "model", "model_b", "spread",
    "cap", "seed", "out_dir", "tolerance", "premium_path",
)
_FIELD_NAMES = ("kind", "med", "cost", "abs_increase", "inflation_multiple", "policy_id", "n_paths", "p1")
# Small numbers only: a generated n_paths must not allocate a large scenario set.
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 50)
    | st.floats(-10.0, 10.0)
    | st.sampled_from([float("nan"), float("inf"), 1e-300])
    | st.text("abx_", max_size=4)
    | st.sampled_from(["mc", "deterministic", "two_scenario", "toy-1"])
)
JSON_VALUES = (
    _JSON_SCALARS
    | st.lists(_JSON_SCALARS, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELD_NAMES) | st.text("abx_", max_size=3), _JSON_SCALARS, max_size=3)
)


class TestConfigSectionTypes:
    @pytest.mark.parametrize("section", CONFIG_SECTIONS)
    @settings(max_examples=12)
    @given(value=JSON_VALUES)
    @example(value=None)
    @example(value=True)
    @example(value=1.5)
    @example(value="x")
    @example(value=[1])
    @example(value={})
    def test_any_json_value_ends_in_a_documented_exit(self, section, value):
        payload = json.loads((FIXTURES / "config_toy.json").read_text())
        for key in ("curves", "portfolio", "tables_dir"):
            payload[key] = str(FIXTURES / payload[key])
        payload["out_dir"] = "out"
        payload[section] = value
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.chdir(tmp)  # relative output directories land in the temporary one
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(payload))
            with contextlib.redirect_stderr(stderr):
                code = cli.main(["value", "--config", str(config)])
        assert code in (0, 2, 3)
        if code == 0:
            assert stderr.getvalue() == ""
        else:
            record = json.loads(stderr.getvalue())["error"]
            assert record["kind"] and record["message"]
            if code == 2:
                assert {"file", "line", "column"} <= record.keys()


#: Cell values for mutated fixture CSVs: non-finite and subnormal numbers,
#: an empty cell, a NUL, a bare quote, a quoted cell that spans two lines
#: and a cell beyond csv.field_size_limit().
CSV_TOKENS = ("0", "1", "-1", "2.5", "nan", "inf", "-inf", "1e-320", "", "\0", '"', '"1\n2"', "9" * 200_000)
FIXTURE_CSVS = ("curves_toy.csv", "portfolio_toy.csv", "tables/toy_k1.csv", "tables/toy_k2.csv", "tables/toy_q.csv")
#: (operation, row, cell, token); row and cell are taken modulo the file's shape.
CELL_EDITS = st.tuples(
    st.sampled_from(("replace", "insert", "drop")),
    st.integers(0, 15),
    st.integers(0, 15),
    st.sampled_from(CSV_TOKENS),
)


class TestMutatedFixtureCsv:
    @settings(max_examples=150)
    @given(name=st.sampled_from(FIXTURE_CSVS), edits=st.lists(CELL_EDITS, min_size=1, max_size=2))
    @example(name="curves_toy.csv", edits=[("replace", 2, 1, "9" * 200_000)])
    @example(name="portfolio_toy.csv", edits=[("replace", 1, 0, '"1\n2"'), ("insert", 1, 3, "\0")])
    @example(name="tables/toy_q.csv", edits=[("replace", 1, 1, '"'), ("drop", 2, 0, "")])
    def test_any_cell_edit_ends_in_a_documented_exit(self, name, edits):
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            inputs = Path(tmp) / "inputs"
            shutil.copytree(FIXTURES, inputs, ignore=shutil.ignore_patterns("out"))
            target = inputs / name
            rows = [line.split(",") for line in target.read_text(encoding="utf-8").splitlines()]
            for operation, row, cell, token in edits:
                cells = rows[row % len(rows)]
                if operation == "insert" or not cells:
                    cells.insert(cell % (len(cells) + 1), token)
                elif operation == "replace":
                    cells[cell % len(cells)] = token
                else:
                    del cells[cell % len(cells)]
            target.write_text("\n".join(",".join(cells) for cells in rows) + "\n", encoding="utf-8")
            with contextlib.redirect_stderr(stderr):
                code = cli.main(["value", "--config", str(inputs / "config_toy.json"), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3)
        if code == 0:
            assert stderr.getvalue() == ""
        else:
            record = json.loads(stderr.getvalue())["error"]
            assert record["kind"] and record["message"]
            if record["kind"] == "parse":
                assert {"file", "line", "column"} <= record.keys()
