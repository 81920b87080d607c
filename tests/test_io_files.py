import csv
import io
import json

import numpy as np
import pytest

from healthval import CurvePair, McModelParams, mc_model
from healthval.fixtures import toy_curve, toy_policy, write_fixture_tree
from healthval.io_files import (
    ParseError,
    load_age_table,
    load_config,
    load_curve,
    load_portfolio,
    write_age_table,
    write_blocks,
    write_curve,
    write_scenarios,
    write_triangle,
)
from healthval.decomposition import aggregate
from healthval.pricing import building_blocks


class TestCurveFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        curve = CurvePair(pn=[1.0, 0.981234567890123, 0.95], pr=[1.0, 1.0, 0.999])
        write_curve(path, curve)
        back = load_curve(path)
        assert np.array_equal(back.pn, curve.pn)
        assert np.array_equal(back.pr, curve.pr)

    def test_fixture_round_trip(self, fixtures_dir):
        curve = load_curve(fixtures_dir / "curves_toy.csv")
        assert np.array_equal(curve.pn, toy_curve().pn)

    def test_missing_column_cites_position(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("t,pn,pr\n1,0.98\n")
        with pytest.raises(ParseError) as err:
            load_curve(path)
        assert err.value.line == 2
        assert "columns" in err.value.reason

    def test_bad_number_cites_column(self, tmp_path):
        path = tmp_path / "curve.csv"
        for rows, line, column in (
            ("0,1,1\n1,abc,1", 3, 2),
            ("0,1,1\ninf,0.98,1", 3, 1),
            ("0,1,1\n1,nan,1", 3, 2),
            ("0,1,1\n1,0.98,-inf", 3, 3),
            ("0,1,1\n1,1e-320,1", 3, 2),  # positive, but 1/pn overflows
            ("0,1,1\n1,0.98,5e-309", 3, 3),
            ('0,1,"1\n"\n1,abc,1', 4, 2),  # the quoted cell spans lines 2 and 3
        ):
            path.write_text(f"t,pn,pr\n{rows}\n")
            with pytest.raises(ParseError) as err:
                load_curve(path)
            assert (err.value.line, err.value.column) == (line, column)

    def test_first_row_must_be_unit(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("t,pn,pr\n0,0.99,1\n1,0.98,1\n")
        with pytest.raises(ParseError, match="0,1,1"):
            load_curve(path)

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
        path = tmp_path / "q.csv"
        values = np.array([0.1, 0.2, 1.0])
        write_age_table(path, values, "q")
        assert np.array_equal(load_age_table(path, "q"), values)

    def test_ages_contiguous_from_zero(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("age,q\n1,0.5\n")
        with pytest.raises(ParseError, match="expected 0"):
            load_age_table(path, "q")

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
        reference = toy_policy()
        assert policy.id == "toy-1"
        assert policy.run_off == reference.run_off
        assert np.array_equal(policy.fo.k1, reference.fo.k1)
        assert np.array_equal(policy.so.q2, reference.so.q2)

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
        for text, position in (('{"curves": }', (1, 12)), ("[" * 200_000 + "]" * 200_000, (1, 1))):
            path.write_text(text)
            with pytest.raises(ParseError, match="invalid JSON") as err:
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
            ({"spread": {"med": float("nan")}}, "spreads"),
            ({"cap": {"abs_increase": float("nan")}}, "abs_increase"),
            ({"premium_path": {"policy_id": "x", "inflation_factor": float("nan")}}, "inflation_factor"),
            ({"model": {"kind": "mc", "vol_n": float("nan")}}, "volatilities"),
            ({"model": {"kind": "mc", "n_paths": 10.5}}, "n_paths"),
            ({"seed": 1.5}, "seed"),
            ({"seed": float("nan")}, "seed"),
            ({"tolerance": float("inf")}, "tolerance"),
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
        assert float(i) == s.i[0, 1]
        # Byte for byte what csv.writer makes of the cells, one per row and column.
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(["path", "weight", "t", "bn", "br", "i"])
        for k in range(s.n_paths):
            for t in range(s.horizon + 1):
                weight, *values = (f"{x:.17g}" for x in (s.weights[k], s.bn[k, t], s.br[k, t], s.i[k, t]))
                writer.writerow([k, weight, t, *values])
        assert path.read_bytes() == reference.getvalue().encode()

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


class TestShippedFixtures:
    def test_generator_reproduces_committed_tree(self, tmp_path, fixtures_dir):
        write_fixture_tree(tmp_path)

        def files(root):
            # out/ is where the shipped configs write their runs, not a fixture.
            paths = (p.relative_to(root) for p in root.rglob("*") if p.is_file())
            return {p for p in paths if p.parts[0] != "out"}

        assert files(tmp_path) == files(fixtures_dir)
        for name in sorted(files(tmp_path)):
            assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes(), name
