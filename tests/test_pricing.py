import numpy as np
import pytest

from healthval import (
    BuildingBlockMatrix,
    CapRule,
    InflationSpread,
    McModelParams,
    TwoScenarioParams,
    be_report,
    aggregate,
    building_blocks,
    calibration_check,
    deterministic_model,
    mc_model,
    two_scenario_model,
)
from healthval.pricing import _be_standard_error
from healthval.term_structures import _row_blocks

from conftest import (
    U,
    flat_curve,
    gamma,
    inpatient_policy,
    long_curve,
    random_curve,
    random_scenario_set,
    run_script,
    toy_curve,
    toy_policy,
    traced_peak,
)


SPREADS = [InflationSpread(), InflationSpread(0.01, 0.005), InflationSpread(-0.02, 0.03)]


class TestInflationSpread:
    def test_zero_spread_is_identity(self):
        s = mc_model(toy_curve(), McModelParams(n_paths=4, vol_n=0.02, vol_r=0.01, corr=0.0, seed=1))
        spread = InflationSpread()
        assert np.array_equal(spread.index(s, "med", np.s_[:, :]), s.bn / s.br)
        assert np.array_equal(spread.index(s, "cost", np.s_[:, :]), s.bn / s.br)

    def test_factors_compound_annually(self):
        s = deterministic_model(flat_curve(3, 0.0, 0.0))
        spread = InflationSpread(med_spread=0.02)
        i_med, i_cost = spread.index(s, "med", np.s_[:, :]), spread.index(s, "cost", np.s_[:, :])
        assert i_med[0] == pytest.approx([1.0, 1.02, 1.02**2, 1.02**3], rel=1e-15)
        assert i_cost[0].tolist() == [1.0] * 4

    @pytest.mark.parametrize("spread", SPREADS)
    def test_one_index_whole_or_at_one_date_is_the_formula_bitwise(self, spread):
        # The keys the pricers and the brute force pass: every path or a
        # block of rows, at every date or at one.
        s = random_scenario_set(np.random.default_rng(6), 30, 7)
        t = np.arange(s.horizon + 1)
        keys = [np.s_[:, :], np.s_[2:5, :]]
        keys += [key for date in t for key in (np.s_[:, date], np.s_[2:5, date])]
        for which, rate in (("med", spread.med_spread), ("cost", spread.cost_spread)):
            want = s.bn / s.br * (1.0 + rate) ** t
            for at in keys:
                assert np.array_equal(spread.index(s, which, at), want[at])
                out = np.empty(want[at].shape)
                assert spread.index(s, which, at, out=out) is out
                assert np.array_equal(out, want[at])

    def test_one_date_keeps_the_bits_of_a_long_whole_index(self):
        # Each date's factor is raised on its own; numpy's scalar power
        # rounds some of them otherwise than its array loop does.
        rng = np.random.default_rng(12)
        s = random_scenario_set(rng, 400, 2)
        out = np.empty(s.n_paths)
        for rate in rng.uniform(-0.5, 0.5, 40):
            spread = InflationSpread(med_spread=rate)
            whole = spread.index(s, "med", np.s_[:, :])
            for date in range(s.horizon + 1):
                spread.index(s, "med", np.s_[:, date], out=out)
                assert np.array_equal(out, whole[:, date]), (rate, date)

    def test_rejects_spread_at_minus_one(self):
        for med, cost in ((-1.0, 0.0), (0.0, -1.5), (float("nan"), 0.0), (0.0, float("nan"))):
            with pytest.raises(ValueError, match="-1"):
                InflationSpread(med_spread=med, cost_spread=cost)

    def test_still_importable_from_pricing(self):
        from healthval import pricing, term_structures

        assert pricing.InflationSpread is term_structures.InflationSpread


class TestBuildingBlocks:
    def test_deterministic_delayed_block(self):
        blocks = building_blocks(deterministic_model(toy_curve()))
        assert blocks.med[2, 1] == pytest.approx((1.0 / 0.98) * 0.95, abs=1e-15)

    def test_diagonals_recover_bond_prices(self):
        rng = np.random.default_rng(61)
        curve = random_curve(rng, 12)
        models = [
            deterministic_model(curve),
            two_scenario_model(curve, TwoScenarioParams(cn1=0.4, cr1=1.3, p1=0.3)),
            mc_model(curve, McModelParams(n_paths=300, vol_n=0.02, vol_r=0.015, corr=0.4, seed=5)),
        ]
        for s in models:
            blocks = building_blocks(s)
            diag = np.array([blocks.med[t, t] for t in range(blocks.horizon + 1)])
            assert np.max(np.abs(blocks.med[:, 0] - curve.pn)) <= 1e-12
            assert np.max(np.abs(diag - curve.pr)) <= 1e-12
            assert np.max(np.abs(blocks.cost_diag - curve.pr)) <= 1e-12

    def test_two_scenario_demo_block(self):
        s = two_scenario_model(toy_curve(), TwoScenarioParams(cn1=0.5, cr1=1.0, p1=0.5))
        assert building_blocks(s).med[2, 1] == pytest.approx(1.292517, abs=5e-7)

    def test_spread_is_exact_multiplicative_shift(self):
        rng = np.random.default_rng(67)
        curve = random_curve(rng, 8)
        s = mc_model(curve, McModelParams(n_paths=200, vol_n=0.03, vol_r=0.01, corr=-0.2, seed=8))
        base = building_blocks(s)
        spread = InflationSpread(med_spread=0.017, cost_spread=-0.004)
        shifted = building_blocks(s, spread)
        t = np.arange(s.horizon + 1)
        fmed, fcost = 1.017**t, 0.996**t
        for t in range(s.horizon + 1):
            for j in range(t + 1):
                assert shifted.med[t, j] == pytest.approx(base.med[t, j] * fmed[j], rel=1e-12)
        assert shifted.cost_diag == pytest.approx(base.cost_diag * fcost, rel=1e-12)

    def test_model_dependence_exceeds_ten_percent(self):
        # Identical curves, different models: the delayed block moves by
        # more than 10%, and the contract value moves with it.
        curve = toy_curve()
        s_det = deterministic_model(curve)
        s_two = two_scenario_model(curve, TwoScenarioParams(cn1=0.5, cr1=1.0, p1=0.5))
        det = building_blocks(s_det).med[2, 1]
        two = building_blocks(s_two).med[2, 1]
        assert abs(two - det) / det > 0.10
        be_det = be_report([toy_policy()], s_det).be_oracle
        be_two = be_report([toy_policy()], s_two).be_oracle
        assert abs(be_two - be_det) > 1.0

    def test_standard_errors_only_for_sampled_sets(self):
        curve = toy_curve()
        assert building_blocks(deterministic_model(curve)).se_med is None
        s = mc_model(curve, McModelParams(n_paths=500, vol_n=0.03, vol_r=0.02, corr=0.0, seed=2))
        blocks = building_blocks(s)
        assert blocks.se_med is not None
        assert blocks.se_med[2, 1] > 0.0

    def test_standard_error_magnitude_is_plausible(self):
        # SE should scale like sample std / sqrt(n): quadruple paths, halve SE.
        curve = toy_curve()
        small = building_blocks(
            mc_model(curve, McModelParams(n_paths=500, vol_n=0.05, vol_r=0.03, corr=0.0, seed=3))
        )
        large = building_blocks(
            mc_model(curve, McModelParams(n_paths=8000, vol_n=0.05, vol_r=0.03, corr=0.0, seed=3))
        )
        ratio = small.se_med[2, 1] / large.se_med[2, 1]
        assert 2.0 < ratio < 8.0

    def test_horizon_follows_the_price_matrix(self):
        blocks = building_blocks(deterministic_model(toy_curve()))
        assert blocks.horizon == len(blocks.med) - 1 == 3
        with pytest.raises(ValueError, match="square"):
            BuildingBlockMatrix(blocks.med[:, :2], blocks.cost_diag)
        with pytest.raises(ValueError, match="one entry per date"):
            BuildingBlockMatrix(blocks.med, blocks.cost_diag[:2])
        # A (2, 2) se_med beside a (4, 4) med failed only in the block export.
        with pytest.raises(ValueError, match="shaped like med"):
            BuildingBlockMatrix(blocks.med, blocks.cost_diag, blocks.med[:2, :2])

    @pytest.mark.parametrize("field", ["med", "cost_diag", "se_med"])
    def test_arrays_are_read_only_and_not_the_callers(self, field):
        # A write after construction would skip the checks: a nan written
        # into med made the BE nan.
        s = mc_model(toy_curve(), McModelParams(n_paths=50, vol_n=0.03, vol_r=0.02, corr=0.0, seed=2))
        blocks = building_blocks(s)
        with pytest.raises(ValueError, match="read-only"):
            getattr(blocks, field)[-1] = float("nan")
        names = ("med", "cost_diag", "se_med")
        fields = {name: getattr(blocks, name).copy() for name in names}
        copy = BuildingBlockMatrix(**fields)
        fields[field][-1] = float("nan")
        assert np.array_equal(getattr(copy, field), getattr(blocks, field))

    @pytest.mark.parametrize("field", ["med", "cost_diag", "se_med"])
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_rejects_non_finite_entries(self, field, bad):
        s = mc_model(toy_curve(), McModelParams(n_paths=50, vol_n=0.03, vol_r=0.02, corr=0.0, seed=2))
        blocks = building_blocks(s)
        names = ("med", "cost_diag", "se_med")
        fields = {name: getattr(blocks, name).copy() for name in names}
        fields[field][-1] = bad  # the last row of a matrix holds lower-triangle entries
        with pytest.raises(ValueError, match="finite"):
            BuildingBlockMatrix(**fields)

    @pytest.mark.parametrize(
        "field, bad, match",
        [("med", 0.0, "positive"), ("cost_diag", -1.0, "positive"), ("se_med", -1e-300, "nonnegative")],
    )
    def test_rejects_out_of_range_entries(self, field, bad, match):
        s = mc_model(toy_curve(), McModelParams(n_paths=50, vol_n=0.03, vol_r=0.02, corr=0.0, seed=2))
        blocks = building_blocks(s)
        fields = {name: getattr(blocks, name).copy() for name in ("med", "cost_diag", "se_med")}
        fields[field][-1] = bad
        with pytest.raises(ValueError, match=match):
            BuildingBlockMatrix(**fields)


def reference_indices(s, spread):
    """The medical and cost indices as their formula: i * (1 + spread)^t with i = bn / br."""
    t = np.arange(s.horizon + 1)
    i = s.bn / s.br
    return i * (1.0 + spread.med_spread) ** t, i * (1.0 + spread.cost_spread) ** t


def reference_building_blocks(s, spread):
    """``building_blocks``' formulas with a fresh temporary per step.

    Returns ``(med, cost_diag, se_med)``.
    """
    i_med, i_cost = reference_indices(s, spread)
    inv_bn = 1.0 / s.bn
    disc = s.weights[:, None] * inv_bn
    med = np.tril(disc.T @ i_med)
    se_med = None
    if s.sampled:
        n = s.n_paths
        second_med = np.tril((inv_bn**2 / n).T @ i_med**2)
        se_med = np.sqrt(np.maximum(second_med - med**2, 0.0) / (n - 1))
    return med, np.einsum("kt,kt->t", disc, i_cost), se_med


def reference_be_standard_error(tri, s, spread):
    """``_be_standard_error``'s formula with a fresh temporary per step."""
    n = tri.horizon + 1
    i_med, i_cost = reference_indices(s, spread)
    dated = i_med[:, :n] @ tri.coeffs.T + i_cost[:, :n] * tri.fixed[None, :]
    z = -np.sum(dated / s.bn[:, :n], axis=1)
    return float(np.std(z, ddof=1) / np.sqrt(s.n_paths))


def reference_sets():
    """A sampled set, an exact two-path set and an exact unequally weighted set."""
    curve = long_curve(100)
    return [
        mc_model(curve, McModelParams(n_paths=300, vol_n=0.02, vol_r=0.01, corr=0.25, seed=9)),
        two_scenario_model(curve, TwoScenarioParams(cn1=0.5, cr1=1.0, p1=0.5)),
        random_scenario_set(np.random.default_rng(4), 100, 50),
    ]


class TestPricingMatchesReference:
    """The in-place pricers give the reference formulas' bits, not just their values."""

    @pytest.mark.parametrize("spread", SPREADS)
    def test_building_blocks_bitwise(self, spread):
        for s in reference_sets():
            blocks = building_blocks(s, spread)
            med, cost_diag, se_med = reference_building_blocks(s, spread)
            assert np.array_equal(blocks.med, med)
            assert np.array_equal(blocks.cost_diag, cost_diag)
            if s.sampled:
                # (0, 0) pays 1 on every path: its SE is exactly 0, where
                # the formula's two moments leave their rounding.
                assert blocks.se_med[0, 0] == 0.0
                off = np.ones(se_med.shape, dtype=bool)
                off[0, 0] = False
                assert np.array_equal(blocks.se_med[off], se_med[off])
            else:
                assert blocks.se_med is None

    @pytest.mark.parametrize("spread", SPREADS)
    def test_be_standard_error_bitwise(self, spread):
        s = reference_sets()[0]
        # A triangle shorter than the set, and one over the whole horizon.
        for portfolio in ([inpatient_policy(40, rs0=800.0), inpatient_policy(75)], [inpatient_policy(21)]):
            tri = aggregate(portfolio)
            assert _be_standard_error(tri, s, spread) == reference_be_standard_error(tri, s, spread)


@pytest.fixture(scope="module", params=[1000, 10_000], ids=lambda n: f"{n}paths")
def several_blocks(request):
    """A sampled set of several row blocks, 101 dates, and a spread."""
    params = McModelParams(n_paths=request.param, vol_n=0.015, vol_r=0.008, corr=0.25, seed=5)
    s = mc_model(long_curve(100), params)
    assert len(_row_blocks(*s.bn.shape)) > 1
    return s, InflationSpread(0.01, 0.005)


class TestPricingOverSeveralBlocks:
    """Sets of several row blocks sum in another order than whole arrays do."""

    def test_building_blocks_within_the_summation_bound(self, several_blocks):
        # Both routes round every discount and index entry alike and
        # differ only in the order of each price's n-term dot product.
        # Its terms are positive, so each order lies within gamma(n) of
        # the exact dot product relative to it, and the two within twice
        # that of each other.
        s, spread = several_blocks
        blocks = building_blocks(s, spread)
        med, cost_diag, _ = reference_building_blocks(s, spread)
        bound = 2.0 * gamma(s.n_paths)
        for got, want in ((blocks.med, med), (blocks.cost_diag, cost_diag)):
            assert np.all(np.abs(got - want) <= bound * want)

    def test_standard_errors_within_the_derived_bound(self, several_blocks):
        # se = sqrt(max(D, 0) / (n - 1)) with D = second - med**2.  As
        # above, each moment (positive terms) is within 2 gamma(n) of the
        # reference's relative to itself, so med**2 within 2.01 times that.
        # Each route rounds the square and the subtraction once, so the
        # two D lie within e = 2 gamma(n) (second + 2.01 med**2) + 2u
        # (second + med**2) of each other.  The square roots then differ by
        # at most e / ((n - 1)(se + se_ref)) and at most sqrt(e / (n - 1)),
        # and each route's division and root round by under 2u of se.
        # second is the reference's, rebuilt from its SE.
        s, spread = several_blocks
        n = s.n_paths
        se = building_blocks(s, spread).se_med
        med, _, se_ref = reference_building_blocks(s, spread)
        second = med**2 + (n - 1) * se_ref**2
        e = 2.0 * gamma(n) * (second + 2.01 * med**2) + 2.0 * U * (second + med**2)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.fmin(e / ((n - 1) * (se + se_ref)), np.sqrt(e / (n - 1)))
        assert np.all(np.abs(se - se_ref) <= bound + 2.0 * U * (se + se_ref))
        # (0, 0) pays 1 on every path; every other entry spreads.
        assert se[0, 0] == 0.0
        lower = np.tril(np.ones(se.shape, dtype=bool))
        lower[0, 0] = False
        assert np.all(se[lower] > 0.0)

    def test_an_entry_equal_on_every_path_has_no_standard_error(self):
        # Without volatility every path is the deterministic one, so every
        # block pays the same on every path.
        params = McModelParams(n_paths=2000, vol_n=0.0, vol_r=0.0, corr=0.0, seed=5)
        s = mc_model(long_curve(100), params)
        assert len(_row_blocks(*s.bn.shape)) > 1
        assert np.all(building_blocks(s, InflationSpread(0.01, 0.005)).se_med == 0.0)

    def test_be_standard_error_bitwise(self, several_blocks):
        # Each path's value is a row of its own, so the blocks keep its bits.
        s, spread = several_blocks
        for portfolio in ([inpatient_policy(40, rs0=800.0), inpatient_policy(75)], [inpatient_policy(21)]):
            tri = aggregate(portfolio)
            assert _be_standard_error(tri, s, spread) == reference_be_standard_error(tri, s, spread)

    def test_calibration_check_within_the_summation_bound(self, several_blocks):
        # Each price is an n-term dot product of positive terms, so the
        # blocked and the whole-array sums lie within 2 gamma(n) of each
        # other relative to the price; the worst errors move by no more.
        s, _ = several_blocks
        curve = long_curve(100)
        report = calibration_check(s, curve, tolerance=1e-12)
        assert report.passed
        for error, b, prices in ((report.max_error_nominal, s.bn, curve.pn), (report.max_error_real, s.br, curve.pr)):
            priced = s.weights @ (1.0 / b)
            whole = float(np.max(np.abs(priced - prices)))
            assert abs(error - whole) <= 2.0 * gamma(s.n_paths) * priced.max()

    def test_blocks_do_not_follow_the_blas_thread_count(self):
        # One process per OpenBLAS thread count, each pricing the same sets
        # of 7 and 31 row blocks: the digests of every price and SE must
        # match.  Whole-array products gave other bits on 2 threads at
        # both sizes.
        script = """
            import hashlib
            from conftest import long_curve
            from healthval import InflationSpread, McModelParams, building_blocks, mc_model
            digest = hashlib.sha256()
            for n_paths in (2000, 10_000):
                params = McModelParams(n_paths=n_paths, vol_n=0.015, vol_r=0.008, corr=0.25, seed=5)
                blocks = building_blocks(mc_model(long_curve(100), params), InflationSpread(0.01, 0.005))
                for prices in (blocks.med, blocks.se_med, blocks.cost_diag):
                    digest.update(prices.tobytes())
            print(digest.hexdigest())
            """
        digests = {run_script(script, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")}
        assert len(digests) == 1


class TestPricingMemory:
    """Peak allocation of the pricers in (paths x dates) float64 arrays beyond the set's own."""

    N_PATHS = 4000
    CURVE = long_curve(100)
    UNIT = 8 * N_PATHS * 101
    SPREAD = InflationSpread(0.01, 0.005)

    def scenario_set(self):
        params = McModelParams(n_paths=self.N_PATHS, vol_n=0.015, vol_r=0.008, corr=0.25, seed=1)
        return mc_model(self.CURVE, params)

    def test_building_blocks_holds_a_few_row_blocks(self):
        # Three block buffers (1/bn, the weighted discount, one index) and
        # the (T+1)-sized sums, about 0.4: one full-size array crosses the
        # bound.
        s = self.scenario_set()
        assert traced_peak(lambda: building_blocks(s, self.SPREAD)) / self.UNIT < 0.5

    def test_be_standard_error_holds_a_few_row_blocks(self):
        # Two block buffers (one index, the dated values) and the per-path
        # values, here over the whole horizon, about 0.2: one full-size
        # array crosses the bound.
        s = self.scenario_set()
        tri = aggregate([inpatient_policy(21)])
        assert tri.horizon == s.horizon
        assert traced_peak(lambda: _be_standard_error(tri, s, self.SPREAD)) / self.UNIT < 0.5


class TestBeReport:
    def test_toy_both_routes_match_closed_form(self):
        curve = toy_curve()
        report = be_report([toy_policy()], deterministic_model(curve))
        pn, pr = curve.pn, curve.pr
        expected = (
            -10.0 - 15.0 * pr[1] + 5.0 * pn[1] - 30.0 * pr[2]
            + 15.0 * (pr[1] / pn[1]) * pn[2] + 5.0 * pn[2]
        )
        assert report.be_decomposition == pytest.approx(expected, abs=1e-12)
        assert report.be_oracle == pytest.approx(expected, abs=1e-12)
        assert report.routes_agree
        assert report.standard_error is None
        assert report.per_t.sum() == pytest.approx(report.be_decomposition, rel=1e-12)

    def test_empty_portfolio_values_to_zero(self):
        report = be_report([], deterministic_model(toy_curve()))
        assert report.be_decomposition == 0.0
        assert report.be_oracle == 0.0
        assert report.routes_agree

    def test_cloned_portfolio_scales_linearly(self):
        curve = toy_curve()
        s = mc_model(curve, McModelParams(n_paths=400, vol_n=0.02, vol_r=0.01, corr=0.3, seed=21))
        single = be_report([toy_policy()], s)
        cloned = be_report([toy_policy()] * 1000, s)
        assert cloned.be_decomposition == pytest.approx(1000.0 * single.be_decomposition, rel=1e-12)
        assert cloned.relative_difference <= 1e-9
        assert cloned.routes_agree

    def test_sampled_sets_carry_standard_error(self):
        s = mc_model(toy_curve(), McModelParams(n_paths=800, vol_n=0.04, vol_r=0.02, corr=0.0, seed=13))
        report = be_report([toy_policy()], s)
        assert report.standard_error is not None and report.standard_error > 0.0
        # The error of an exactly-matched three-date contract is small
        # relative to the value itself.
        assert report.standard_error < abs(report.be_oracle)

    def test_cap_supplement_is_reported(self):
        curve = flat_curve(2, 0.02, -0.02)
        s = deterministic_model(curve)
        report = be_report([toy_policy()], s, cap=CapRule(abs_increase=0.0, inflation_multiple=0.0))
        assert report.be_oracle_capped is not None
        assert report.cap_bound
        assert report.be_oracle_capped >= report.be_oracle

    def test_tolerance_controls_agreement_flag(self):
        report = be_report([toy_policy()], deterministic_model(toy_curve()), tolerance=1e-300)
        # The routes differ by float noise, which a 1e-300 tolerance rejects.
        assert not report.routes_agree


class TestCalibrationToleranceSplit:
    def test_default_tolerance_accepts_exact_models(self):
        curve = toy_curve()
        for s in (
            deterministic_model(curve),
            two_scenario_model(curve, TwoScenarioParams(cn1=0.25, cr1=0.8, p1=0.4)),
        ):
            assert calibration_check(s, curve).passed
