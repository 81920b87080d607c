import csv
import io
import json
import re
import shutil

import numpy as np
import pytest

from healthval import (
    InflationSpread,
    McModelParams,
    ScenarioSet,
    TwoScenarioParams,
    mc_model,
    two_scenario_model,
)
from healthval.io_files import (
    MAX_PATH_DATES,
    ModelConfig,
    ParseError,
    check_path_dates,
    load_age_table,
    load_config,
    load_curve,
    load_portfolio,
    write_blocks,
    write_scenarios,
    write_triangle,
)
from healthval.decomposition import aggregate
from healthval.pricing import building_blocks

from conftest import inpatient_policy, long_curve, toy_curve, toy_policy


class TestCurveFile:
    def test_round_trip(self, tmp_path):
        # 17 significant digits, as the exports write them, read back exactly.
        path = tmp_path / "curve.csv"
        path.write_text("t,pn,pr\n0,1,1\n1,0.98123456789012298,1\n2,0.94999999999999996,0.999\n")
        back = load_curve(path)
        assert np.array_equal(back.pn, [1.0, 0.981234567890123, 0.95])
        assert np.array_equal(back.pr, [1.0, 1.0, 0.999])

    def test_fixture_round_trip(self, fixtures_dir):
        curve = load_curve(fixtures_dir / "curves_toy.csv")
        assert np.array_equal(curve.pn, [1.0, 0.98, 0.95, 0.95])
        assert np.array_equal(curve.pr, np.ones(4))

    def test_missing_column_cites_position(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("t,pn,pr\n1,0.98\n")
        with pytest.raises(ParseError) as err:
            load_curve(path)
        assert err.value.line == 2
        assert "columns" in err.value.reason

    def test_bad_number_cites_column(self, tmp_path):
        path = tmp_path / "curve.csv"
        for rows, line, column, reason in (
            ("0,1,1\n1,abc,1", 3, 2, "not a number"),
            ("0,1,1\ninf,0.98,1", 3, 1, "not a finite number"),
            ("0,1,1\n1,nan,1", 3, 2, "not a finite number"),
            ("0,1,1\n1,0.98,-inf", 3, 3, "not a finite number"),
            ("0,1,1\n1,1e-320,1", 3, 2, "too small"),  # positive, but 1/pn overflows
            ("0,1,1\n1,0.98,5e-309", 3, 3, "too small"),
            ('0,1,"1\n"\n1,abc,1', 4, 2, "not a number"),  # the quoted cell spans lines 2 and 3
            ("0,1,1\n1.5,0.98,1", 3, 1, "expected an integer"),
            ("0,1,1\n1,0,1", 3, 2, "ZCB price must be positive"),
        ):
            path.write_text(f"t,pn,pr\n{rows}\n")
            with pytest.raises(ParseError, match=reason) as err:
                load_curve(path)
            assert (err.value.line, err.value.column) == (line, column)

    def test_too_short_curve_cites_the_line_after_the_last(self, tmp_path):
        path = tmp_path / "curve.csv"
        for rows, line in (("0,1,1", 3), ('0,1,"1\n"', 4)):  # the quoted cell spans lines 2 and 3
            path.write_text(f"t,pn,pr\n{rows}\n")
            with pytest.raises(ParseError, match="t = 1") as err:
                load_curve(path)
            assert (err.value.line, err.value.column) == (line, 1)

    def test_first_row_must_be_unit(self, tmp_path):
        # The error cites the first cell of the row that is not 1.
        path = tmp_path / "curve.csv"
        for row, column in (("0,0.99,1", 2), ("0,1,0.99", 3), ("0,0.99,0.99", 2)):
            path.write_text(f"t,pn,pr\n{row}\n1,0.98,1\n")
            with pytest.raises(ParseError, match="0,1,1") as err:
                load_curve(path)
            assert (err.value.line, err.value.column) == (2, column)

    def test_maturities_must_be_contiguous(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("t,pn,pr\n0,1,1\n2,0.98,1\n")
        with pytest.raises(ParseError, match="expected t=1"):
            load_curve(path)

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("time,pn,pr\n0,1,1\n")
        with pytest.raises(ParseError) as err:
            load_curve(path)
        assert err.value.line == 1


class TestAgeTables:
    def test_round_trip(self, tmp_path):
        # 17 significant digits, as the exports write them, read back exactly.
        path = tmp_path / "q.csv"
        path.write_text("age,q\n0,0.10000000000000001\n1,0.20000000000000001\n2,1\n")
        assert np.array_equal(load_age_table(path, "q"), [0.1, 0.2, 1.0])

    def test_ages_contiguous_from_zero(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("age,q\n1,0.5\n")
        with pytest.raises(ParseError, match="expected 0"):
            load_age_table(path, "q")

    def test_empty_table_cites_the_line_after_the_header(self, tmp_path):
        path = tmp_path / "q.csv"
        # A file without even a header is cited at its start.
        for text, line, reason in (
            ("age,q\n", 2, "no rows"),
            ('"age\n",q\n', 3, "no rows"),  # the quoted cell spans lines 1 and 2
            ("", 1, "file is empty"),
        ):
            path.write_text(text)
            with pytest.raises(ParseError, match=reason) as err:
                load_age_table(path, "q")
            assert (err.value.line, err.value.column) == (line, 1)

    def test_value_a_basis_rejects_cites_its_own_cell(self, tmp_path):
        path = tmp_path / "table.csv"
        for column, rows, line, reason in (
            ("q", "0,0\n1,1.5\n2,1", 3, r"must lie in \[0, 1\], got 1.5"),
            ("q", "0,-0.25\n1,1", 2, r"must lie in \[0, 1\], got -0.25"),
            ("q", "0,0\n1,0.5", 3, "at the terminal age must be 1, got 0.5"),
            ("k", "0,10\n1,-1\n2,0", 3, "benefit must be nonnegative, got -1.0"),
        ):
            path.write_text(f"age,{column}\n{rows}\n")
            with pytest.raises(ParseError, match=reason) as err:
                load_age_table(path, column)
            assert (err.value.line, err.value.column) == (line, 2)

    def test_value_column_name_must_match(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("age,q\n0,0.5\n")
        with pytest.raises(ParseError):
            load_age_table(path, "k")


class TestPortfolioFile:
    def test_fixture_portfolio(self, fixtures_dir):
        policies = load_portfolio(fixtures_dir / "portfolio_toy.csv", fixtures_dir / "tables")
        assert len(policies) == 1
        policy = policies[0]
        assert policy.id == "toy-1"
        assert policy.run_off == 2
        assert np.array_equal(policy.fo.k1, [0.0, 0.0, 30.0])
        assert np.array_equal(policy.so.q2, [0.0, 0.0, 1.0])

    def test_missing_table_file_cites_row(self, tmp_path, fixtures_dir):
        path = tmp_path / "portfolio.csv"
        path.write_text(
            "id,x0,rs0,margin,r_calc,c1,c2,benefit_table,benefit_table_2nd,q_table,q_table_2nd\n"
            "p1,0,0,0,0,0,0,nope.csv,toy_k2.csv,toy_q.csv,toy_q.csv\n"
        )
        with pytest.raises(ParseError) as err:
            load_portfolio(path, fixtures_dir / "tables")
        assert err.value.line == 2
        assert "nope.csv" in err.value.reason

    def test_bad_table_cell_is_cited_in_its_table(self, tmp_path, fixtures_dir):
        # The portfolio row that first needs the table is not the culprit.
        tables = tmp_path / "tables"
        shutil.copytree(fixtures_dir / "tables", tables)
        (tables / "toy_q.csv").write_text("age,q\n0,0\n1,1.5\n2,1\n")
        with pytest.raises(ParseError, match=r"must lie in \[0, 1\]") as err:
            load_portfolio(fixtures_dir / "portfolio_toy.csv", tables)
        assert (err.value.path, err.value.line, err.value.column) == (str(tables / "toy_q.csv"), 3, 2)

    def test_rows_of_one_tariff_share_their_bases(self, tmp_path, fixtures_dir):
        path = tmp_path / "portfolio.csv"
        path.write_text(
            "id,x0,rs0,margin,r_calc,c1,c2,benefit_table,benefit_table_2nd,q_table,q_table_2nd\n"
            "a,0,0,0,0,0,0,toy_k1.csv,toy_k2.csv,toy_q.csv,toy_q.csv\n"
            "b,1,5,0,0,0,0,toy_k1.csv,toy_k2.csv,toy_q.csv,toy_q.csv\n"
            "c,0,0,0.1,0,0,0,toy_k1.csv,toy_k2.csv,toy_q.csv,toy_q.csv\n"
        )
        a, b, c = load_portfolio(path, fixtures_dir / "tables")
        assert a.fo is b.fo and a.so is b.so
        assert c.fo is not a.fo and c.so is a.so

    def test_invalid_basis_cites_the_row_that_first_needs_it(self, tmp_path, fixtures_dir):
        path = tmp_path / "portfolio.csv"
        path.write_text(
            "id,x0,rs0,margin,r_calc,c1,c2,benefit_table,benefit_table_2nd,q_table,q_table_2nd\n"
            "good,0,0,0,0,0,0,toy_k1.csv,toy_k2.csv,toy_q.csv,toy_q.csv\n"
            "bad,0,0,1.5,0,0,0,toy_k1.csv,toy_k2.csv,toy_q.csv,toy_q.csv\n"
        )
        with pytest.raises(ParseError, match="margin") as err:
            load_portfolio(path, fixtures_dir / "tables")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "field, value, column",
        [("x0", "7", 2), ("rs0", "-5", 3), ("margin", "1.5", 4), ("r_calc", "-2", 5), ("c1", "-1", 6), ("c2", "-1", 7)],
    )
    def test_value_a_basis_or_policy_rejects_cites_its_own_cell(self, tmp_path, fixtures_dir, field, value, column):
        row = "toy-1,0,0,0,0,0,0,toy_k1.csv,toy_k2.csv,toy_q.csv,toy_q.csv".split(",")
        row[column - 1] = value
        path = tmp_path / "portfolio.csv"
        path.write_text(
            "id,x0,rs0,margin,r_calc,c1,c2,benefit_table,benefit_table_2nd,q_table,q_table_2nd\n" + ",".join(row) + "\n"
        )
        with pytest.raises(ParseError) as err:
            load_portfolio(path, fixtures_dir / "tables")
        assert (err.value.line, err.value.column) == (2, column)
        assert re.search(rf"\b{field}\b", err.value.reason), err.value.reason

    @pytest.mark.parametrize("column, order", [(8, "first-order"), (9, "second-order")])
    def test_benefit_table_of_other_ages_cites_its_cell(self, tmp_path, fixtures_dir, column, order):
        # A two-age benefit table beside the three-age termination table.
        tables = tmp_path / "tables"
        shutil.copytree(fixtures_dir / "tables", tables)
        (tables / "short_k.csv").write_text("age,k\n0,0\n1,0\n")
        row = "toy-1,0,0,0,0,0,0,toy_k1.csv,toy_k2.csv,toy_q.csv,toy_q.csv".split(",")
        row[column - 1] = "short_k.csv"
        path = tmp_path / "portfolio.csv"
        path.write_text(
            "id,x0,rs0,margin,r_calc,c1,c2,benefit_table,benefit_table_2nd,q_table,q_table_2nd\n" + ",".join(row) + "\n"
        )
        with pytest.raises(ParseError, match=f"{order} benefit and termination tables must cover the same ages") as err:
            load_portfolio(path, tables)
        assert (err.value.line, err.value.column) == (2, column)

    @pytest.mark.parametrize(
        "x0, column, reason",
        [
            (0, 1, "second-order table ends at age 1, run-off needs age 2"),
            (2, 2, "entry age x0 = 2 outside second-order table"),
        ],
    )
    def test_short_second_order_tables_cite_the_row_once(self, tmp_path, fixtures_dir, x0, column, reason):
        # Two-age second-order tables beside the three-age first-order ones.
        tables = tmp_path / "tables"
        shutil.copytree(fixtures_dir / "tables", tables)
        (tables / "short_k.csv").write_text("age,k\n0,0\n1,0\n")
        (tables / "short_q.csv").write_text("age,q\n0,0\n1,1\n")
        path = tmp_path / "portfolio.csv"
        path.write_text(
            "id,x0,rs0,margin,r_calc,c1,c2,benefit_table,benefit_table_2nd,q_table,q_table_2nd\n"
            f"toy-1,{x0},0,0,0,0,0,toy_k1.csv,short_k.csv,toy_q.csv,short_q.csv\n"
        )
        with pytest.raises(ParseError) as err:
            load_portfolio(path, tables)
        assert str(err.value) == f"{path}:2:{column}: policy 'toy-1': {reason}"

    def test_invalid_policy_values_cite_row_and_id(self, tmp_path, fixtures_dir):
        path = tmp_path / "portfolio.csv"
        path.write_text(
            "id,x0,rs0,margin,r_calc,c1,c2,benefit_table,benefit_table_2nd,q_table,q_table_2nd\n"
            "bad-one,0,-3,0,0,0,0,toy_k1.csv,toy_k2.csv,toy_q.csv,toy_q.csv\n"
        )
        with pytest.raises(ParseError, match="bad-one"):
            load_portfolio(path, fixtures_dir / "tables")


class TestConfig:
    def test_fixture_config(self, fixtures_dir):
        config = load_config(fixtures_dir / "config_toy.json")
        assert config.model.kind == "deterministic"
        assert config.model_b is not None and config.model_b.kind == "two_scenario"
        assert config.seed == 1

    def test_overrides(self, fixtures_dir):
        config = load_config(fixtures_dir / "config_toy.json", seed=99, tolerance=1e-6, out_dir="x")
        assert config.seed == 99
        assert config.tolerance == 1e-6
        assert str(config.out_dir) == "x"

    def test_model_override_by_name(self, fixtures_dir):
        config = load_config(fixtures_dir / "config_toy.json", model="two_scenario")
        assert config.model.kind == "two_scenario"

    def test_missing_input_file_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"curves": "missing.csv", "portfolio": "missing.csv"}')
        with pytest.raises(ParseError, match="not found"):
            load_config(path)

    def test_invalid_json_cites_position(self, tmp_path):
        path = tmp_path / "config.json"
        # Nesting too deep for the decoder has no position of its own: it
        # is cited at the start of the document.
        for text, position, reason in (
            ('{"curves": }', (1, 12), "invalid JSON"),
            ("[" * 200_000 + "]" * 200_000, (1, 1), "invalid JSON"),
            ("[]", (1, 1), "config must be a JSON object"),
        ):
            path.write_text(text)
            with pytest.raises(ParseError, match=reason) as err:
                load_config(path)
            assert (err.value.line, err.value.column) == position

    def test_invalid_model_params_rejected_before_compute(self, tmp_path, fixtures_dir):
        path = tmp_path / "config.json"
        path.write_text(
            '{"curves": "%s", "portfolio": "%s", "tables_dir": "%s",'
            ' "model": {"kind": "two_scenario", "cn1": 4.0, "p1": 0.5}}'
            % (
                fixtures_dir / "curves_toy.csv",
                fixtures_dir / "portfolio_toy.csv",
                fixtures_dir / "tables",
            )
        )
        with pytest.raises(ParseError, match="cn1"):
            load_config(path)

    def test_nan_parameters_rejected(self, tmp_path, fixtures_dir):
        base = {
            "curves": str(fixtures_dir / "curves_long.csv"),
            "portfolio": str(fixtures_dir / "portfolio_inpatient.csv"),
            "tables_dir": str(fixtures_dir / "tables"),
        }
        cases = (
            ({"spread": {"med": float("nan")}}, r"spread\.med"),
            ({"cap": {"abs_increase": float("nan")}}, "abs_increase"),
            ({"premium_path": {"policy_id": "x", "inflation_factor": float("nan")}}, "inflation_factor"),
            ({"model": {"kind": "mc", "vol_n": float("nan")}}, r"model\.vol_n"),
            ({"model": {"kind": "mc", "n_paths": 10.5}}, "n_paths"),
            ({"seed": 1.5}, "seed"),
            ({"seed": float("nan")}, "seed"),
            ({"tolerance": float("inf")}, "tolerance"),
            # Numeric fields take finite JSON numbers only, integer fields
            # JSON integers, text fields strings; each error names its field.
            ({"cap": {"abs_increase": True}}, r":1:1: cap\.abs_increase must be a finite number, got True$"),
            ({"cap": {"abs_increase": "0.5"}}, r"cap\.abs_increase must be a finite number"),
            ({"cap": {"abs_increase": float("inf")}}, r"cap\.abs_increase must be a finite number, got inf"),
            ({"tolerance": "1e-9"}, r":1:1: tolerance must be a finite number, got '1e-9'$"),
            ({"spread": {"cost": 10**400}}, r"spread\.cost must be a finite number"),
            ({"model": {"kind": "mc", "n_paths": "20"}}, r"model\.n_paths must be an integer"),
            ({"model_b": {"kind": "two_scenario", "p1": False}}, r"model_b\.p1 must be a finite number"),
            ({"seed": True}, "seed must be an integer"),
            ({"premium_path": {"policy_id": 5}}, r"premium_path\.policy_id must be a string, got 5"),
            ({"premium_path": {"r_real": 0.0}}, r"premium_path\.policy_id is required"),
            ({"model_b": {"cn1": 0.5}}, r":1:1: model_b\.kind must be one of deterministic, two_scenario, mc"),
            ({"model": {"kind": "gbm"}}, r"model\.kind must be one of"),
        )
        path = tmp_path / "config.json"
        for extra, message in cases:
            path.write_text(json.dumps({**base, **extra}))  # NaN and inf are written as NaN and Infinity
            with pytest.raises(ParseError, match=message):
                load_config(path)
        # `--tolerance inf` on the command line reaches load_config as an override.
        path.write_text(json.dumps(base))
        with pytest.raises(ParseError, match="tolerance"):
            load_config(path, tolerance=float("inf"))


class TestPathDateBound:
    """The scenario-size bound is arithmetic on the config: nothing is allocated here."""

    @pytest.mark.parametrize("horizon", [1, 3, 100, 120])
    def test_largest_admitted_set_sits_at_the_limit(self, horizon):
        largest = MAX_PATH_DATES // (horizon + 1)
        check_path_dates(largest, horizon, "model.n_paths")
        with pytest.raises(ValueError, match=r"^model\.n_paths = %d: " % (largest + 1)):
            check_path_dates(largest + 1, horizon, "model.n_paths")

    def test_limit_admits_production_size_and_rejects_what_fits_only_the_address_space(self):
        check_path_dates(10_000, 100, "model.n_paths")
        # 10**11 paths over 4 dates: 3.2 TB per array, within a 64-bit
        # address space but beyond the memory of any machine this runs on.
        with pytest.raises(ValueError, match=r"400000000000 scenario entries, above the limit"):
            check_path_dates(10**11, 3, "model_b.n_paths")

    def test_build_checks_before_sampling(self, monkeypatch):
        model = ModelConfig.read({"kind": "mc", "n_paths": 10**11}, "model_b", seed=1)
        monkeypatch.setattr("healthval.io_files.mc_model", lambda *args: pytest.fail("sampled"))
        with pytest.raises(ValueError, match=r"^model_b\.n_paths = 100000000000: "):
            model.build(toy_curve())


def _csv_bytes(header, rows) -> bytes:
    """What csv.writer makes of ``header`` and ``rows``: the reference the exports must match byte for byte."""
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(header)
    writer.writerows(rows)
    return reference.getvalue().encode()


def _g17(x) -> str:
    return f"{x:.17g}"


class TestExports:
    def test_scenario_export_is_full_precision(self, tmp_path):
        s = mc_model(toy_curve(), McModelParams(n_paths=3, vol_n=0.02, vol_r=0.01, corr=0.1, seed=7))
        path = tmp_path / "scen.csv"
        write_scenarios(path, s)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "path,weight,t,bn,br,i"
        assert len(lines) == 1 + 3 * (s.horizon + 1)
        _, _, _, bn, br, i = lines[2].split(",")
        assert float(bn) == s.bn[0, 1]
        assert float(br) == s.br[0, 1]
        assert float(i) == s.bn[0, 1] / s.br[0, 1]
        assert path.read_bytes() == self._scenario_reference(s)

    @staticmethod
    def _scenario_reference(s) -> bytes:
        # Byte for byte what csv.writer makes of the cells, one per row and column.
        rows = (
            [k, _g17(s.weights[k]), t, _g17(s.bn[k, t]), _g17(s.br[k, t]), _g17(s.bn[k, t] / s.br[k, t])]
            for k in range(s.n_paths)
            for t in range(s.horizon + 1)
        )
        return _csv_bytes(["path", "weight", "t", "bn", "br", "i"], rows)

    def test_scenario_export_of_a_reweighted_subset(self, tmp_path):
        s = mc_model(toy_curve(), McModelParams(n_paths=9, vol_n=0.02, vol_r=0.01, corr=0.1, seed=3))
        keep = [7, 2, 4, 0]
        raw = np.array([0.1, 0.35, 0.2, 0.3])
        subset = ScenarioSet(bn=s.bn[keep], br=s.br[keep], weights=raw / raw.sum())
        assert not np.allclose(subset.weights, 1 / len(keep))
        path = tmp_path / "scen.csv"
        write_scenarios(path, subset)
        assert path.read_bytes() == self._scenario_reference(subset)

    def test_triangle_export_matches_csv_writer_with_negative_and_zero_coefficients(self, tmp_path):
        tri = aggregate([inpatient_policy(40), inpatient_policy(60, rs0=0.5), toy_policy(rs0=0.3)])
        lower = tri.coeffs[np.tril_indices(tri.horizon + 1)]
        assert np.any(lower < 0) and np.any(lower == 0)
        gross, fixed = tmp_path / "g.csv", tmp_path / "f.csv"
        write_triangle(gross, fixed, tri)
        dates = range(tri.horizon + 1)
        assert gross.read_bytes() == _csv_bytes(
            ["t", "s", "c_gross"], ([t, s, _g17(tri.coeffs[t, s])] for t in dates for s in range(t + 1))
        )
        assert fixed.read_bytes() == _csv_bytes(["t", "c_fixed"], ([t, _g17(tri.fixed[t])] for t in dates))

    @staticmethod
    def _blocks_reference(blocks) -> bytes:
        se = (lambda t, s: "") if blocks.se_med is None else (lambda t, s: _g17(blocks.se_med[t, s]))
        rows = (
            [t, s, _g17(blocks.med[t, s]), se(t, s)] for t in range(blocks.horizon + 1) for s in range(t + 1)
        )
        return _csv_bytes(["t", "s", "b_med", "se_med"], rows)

    def test_block_export_of_a_sampled_set_matches_csv_writer(self, tmp_path):
        s = mc_model(long_curve(30), McModelParams(n_paths=50, vol_n=0.02, vol_r=0.01, corr=0.1, seed=5))
        blocks = building_blocks(s, InflationSpread(med_spread=0.01, cost_spread=0.005))
        assert blocks.se_med is not None
        path = tmp_path / "blocks.csv"
        write_blocks(path, blocks)
        assert path.read_bytes() == self._blocks_reference(blocks)

    def test_block_export_of_an_exact_set_matches_csv_writer(self, tmp_path):
        blocks = building_blocks(two_scenario_model(long_curve(30), TwoScenarioParams(0.2, 1.0, 0.5)))
        assert blocks.se_med is None
        path = tmp_path / "blocks.csv"
        write_blocks(path, blocks)
        assert path.read_bytes() == self._blocks_reference(blocks)

    def test_triangle_export_layout(self, tmp_path):
        tri = aggregate([toy_policy()])
        gross, fixed = tmp_path / "g.csv", tmp_path / "f.csv"
        write_triangle(gross, fixed, tri)
        lines = gross.read_text().strip().splitlines()
        assert lines[0] == "t,s,c_gross"
        assert len(lines) == 1 + 6  # rows 0..2 packed
        assert lines[1].startswith("0,0,")
        assert fixed.read_text().startswith("t,c_fixed\n0,")

    def test_block_export_has_empty_se_for_exact_sets(self, tmp_path):
        from healthval import deterministic_model

        blocks = building_blocks(deterministic_model(toy_curve()))
        path = tmp_path / "blocks.csv"
        write_blocks(path, blocks)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,s,b_med,se_med"
        assert lines[1].endswith(",")

