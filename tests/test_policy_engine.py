import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from healthval import (
    CapRule,
    CurvePair,
    FirstOrderBasis,
    InflationSpread,
    McModelParams,
    PolicyData,
    SecondOrderBasis,
    be_report,
    build_schedule,
    deterministic_model,
    first_order_pv,
    mc_model,
    project,
    project_real_rate,
    simulate_portfolio,
)
from healthval.fixtures import (
    flat_curve,
    inpatient_policy,
    long_curve,
    toy_curve,
    toy_first_order,
    toy_policy,
)

from conftest import random_basis_pair, random_inflation_path, random_policy


def brute_force_annuity(fo: FirstOrderBasis, x: int) -> float:
    total, survival = 0.0, 1.0
    for t in range(fo.terminal_age - x + 1):
        total += survival
        survival *= (1.0 - fo.q1[x + t]) / (1.0 + fo.r_calc)
        if survival == 0.0:
            break
    return total


def brute_force_benefit_pv(fo: FirstOrderBasis, x: int) -> float:
    total, survival = 0.0, 1.0
    for t in range(fo.terminal_age - x + 1):
        total += survival * fo.k1[x + t]
        survival *= (1.0 - fo.q1[x + t]) / (1.0 + fo.r_calc)
        if survival == 0.0:
            break
    return total


def first_order_values(fo: FirstOrderBasis, x: int) -> tuple[float, float]:
    """annuity[0] and benefit_value[0] of the schedule of a contract entering at x."""
    so = SecondOrderBasis(k2=fo.k1, q2=fo.q1)
    sched = build_schedule(PolicyData(x0=x, fo=fo, so=so))
    return float(sched.annuity[0]), float(sched.benefit_value[0])


def annuity_at(fo: FirstOrderBasis, x: int) -> float:
    return first_order_values(fo, x)[0]


def benefit_value_at(fo: FirstOrderBasis, x: int) -> float:
    return first_order_values(fo, x)[1]


class TestBasisValidation:
    def test_terminal_termination_required(self):
        with pytest.raises(ValueError, match="terminal age"):
            FirstOrderBasis(k1=[0.0, 0.0], q1=[0.0, 0.5], r_calc=0.0)

    def test_probability_range(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            FirstOrderBasis(k1=[0.0, 0.0], q1=[1.5, 1.0], r_calc=0.0)

    def test_negative_benefits_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SecondOrderBasis(k2=[-1.0, 0.0], q2=[0.0, 1.0])

    def test_margin_below_one(self):
        for margin in (1.0, float("nan")):
            with pytest.raises(ValueError, match="margin"):
                FirstOrderBasis(k1=[0.0], q1=[1.0], r_calc=0.0, margin=margin)

    def test_fixed_costs_nonnegative(self):
        for cost in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="fixed cost"):
                FirstOrderBasis(k1=[0.0], q1=[1.0], r_calc=0.0, c1=cost)
            with pytest.raises(ValueError, match="fixed cost"):
                SecondOrderBasis(k2=[0.0], q2=[1.0], c2=cost)

    def test_second_order_must_terminate_with_first(self):
        fo = FirstOrderBasis(k1=[0.0, 10.0, 0.0], q1=[0.0, 1.0, 1.0], r_calc=0.0)
        so = SecondOrderBasis(k2=[0.0, 10.0, 0.0], q2=[0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="outlives"):
            PolicyData(x0=0, fo=fo, so=so)

    def test_run_off_is_first_certain_termination(self):
        assert toy_policy().run_off == 2
        assert inpatient_policy(25).run_off == 96


class TestAnnuityFactor:
    def test_toy_annuity_is_three(self):
        assert annuity_at(toy_first_order(), 0) == 3.0

    def test_immediate_termination_leaves_one_payment(self):
        fo = FirstOrderBasis(k1=[5.0], q1=[1.0], r_calc=0.05)
        assert annuity_at(fo, 0) == 1.0

    def test_half_terminations_by_hand(self):
        fo = FirstOrderBasis(k1=[0.0, 0.0, 0.0], q1=[0.5, 0.5, 1.0], r_calc=0.0)
        assert annuity_at(fo, 0) == pytest.approx(1.75, abs=1e-15)
        assert annuity_at(fo, 0) == pytest.approx(brute_force_annuity(fo, 0), rel=1e-13)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_brute_force_summation(self, seed):
        rng = np.random.default_rng(seed)
        fo, _ = random_basis_pair(rng, int(rng.integers(1, 25)))
        x = int(rng.integers(0, fo.terminal_age + 1))
        assert annuity_at(fo, x) == pytest.approx(brute_force_annuity(fo, x), rel=1e-12)
        assert annuity_at(fo, x) >= 1.0


class TestBenefitPv:
    def test_toy_value(self):
        assert benefit_value_at(toy_first_order(), 0) == 30.0

    def test_zero_benefits(self):
        fo = FirstOrderBasis(k1=[0.0, 0.0], q1=[0.0, 1.0], r_calc=0.02)
        assert benefit_value_at(fo, 0) == 0.0

    def test_two_year_by_hand(self):
        fo = FirstOrderBasis(k1=[10.0, 20.0], q1=[0.5, 1.0], r_calc=0.0)
        assert benefit_value_at(fo, 0) == pytest.approx(20.0, abs=1e-15)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_brute_force_summation(self, seed):
        rng = np.random.default_rng(seed)
        fo, _ = random_basis_pair(rng, int(rng.integers(1, 25)))
        x = int(rng.integers(0, fo.terminal_age + 1))
        assert benefit_value_at(fo, x) == pytest.approx(brute_force_benefit_pv(fo, x), rel=1e-12)


class TestProject:
    def test_toy_closed_form(self):
        policy = toy_policy()
        for i1 in (1.0, 1.02, 0.9):
            for i2 in (1.0, 1.0404, 0.81):
                path = [1.0, i1, i2]
                res = project(policy, path, path)
                expected = [10.0, 15.0 * i1 - 5.0, 30.0 * i2 - 15.0 * i1 - 5.0]
                assert res.premiums_net == pytest.approx(expected, abs=1e-12)

    def test_toy_reserves(self):
        res = project(toy_policy(), [1.0, 1.02, 1.0404], [1.0, 1.02, 1.0404])
        assert res.reserves == pytest.approx([0.0, 10.0, 20.3], abs=1e-12)
        assert res.premiums_net == pytest.approx([10.0, 10.3, 10.912], abs=1e-12)

    def test_level_benefits_need_no_reserve(self):
        fo = FirstOrderBasis(k1=np.full(6, 40.0), q1=[0.1, 0.1, 0.1, 0.1, 0.1, 1.0], r_calc=0.03)
        so = SecondOrderBasis(k2=np.full(6, 40.0), q2=[0.1, 0.1, 0.1, 0.1, 0.1, 1.0])
        res = project(PolicyData(x0=0, fo=fo, so=so), np.ones(6), np.ones(6))
        assert np.max(np.abs(res.premiums_net - 40.0)) < 1e-12
        assert np.max(np.abs(res.reserves)) < 1e-12

    def test_equivalence_identity_along_random_paths(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            policy = random_policy(rng, 12)
            sched = build_schedule(policy)
            i_med = random_inflation_path(rng, policy.run_off)
            res = project(policy, i_med, i_med)
            lhs = res.reserves + sched.annuity * res.premiums_net
            rhs = i_med * sched.benefit_value
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_index_move_shifts_later_premiums_by_a_level_amount(self):
        # a[t] = 1 + a[t+1]/g[t] makes rs[t, s]/a[t] constant for t > s, so a
        # move of i_med[s] alone changes every later net premium by one
        # amount and no earlier one; the closed-form triangle rests on this.
        rng = np.random.default_rng(43)
        policies = [inpatient_policy(x0, rs0=rs0) for x0 in (21, 45, 69) for rs0 in (0.0, 800.0)]
        policies += [random_policy(rng, 100) for _ in range(10)]
        for policy in policies:
            i_med = random_inflation_path(rng, policy.run_off)
            base = project(policy, i_med, i_med).premiums_net
            for s in range(1, policy.run_off, max(1, policy.run_off // 3)):
                bumped = i_med.copy()
                bumped[s] *= 1.01
                move = project(policy, bumped, i_med).premiums_net - base
                assert np.all(move[:s] == 0.0)
                later = move[s + 1 :]
                assert np.ptp(later) <= 1e-9 * np.max(np.abs(move))

    def test_homogeneity_in_amounts(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            policy = random_policy(rng, 10)
            alpha = float(rng.uniform(0.1, 7.0))
            scaled = PolicyData(
                x0=policy.x0,
                fo=FirstOrderBasis(
                    k1=policy.fo.k1 * alpha,
                    q1=policy.fo.q1,
                    r_calc=policy.fo.r_calc,
                    c1=policy.fo.c1 * alpha,
                    margin=policy.fo.margin,
                ),
                so=SecondOrderBasis(
                    k2=policy.so.k2 * alpha, q2=policy.so.q2, c2=policy.so.c2 * alpha
                ),
                rs0=policy.rs0 * alpha,
                id=policy.id,
            )
            i_med = random_inflation_path(rng, policy.run_off)
            base = project(policy, i_med, i_med)
            big = project(scaled, i_med, i_med)
            for field in ("premiums_net", "premiums_gross", "reserves", "cashflow"):
                got = getattr(big, field)
                want = alpha * getattr(base, field)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, field

    def test_negative_premium_flagged_under_deflation(self):
        res = project(toy_policy(), [1.0, 0.2, 0.2], [1.0, 0.2, 0.2])
        assert res.negative_premium
        assert res.premiums_net[1] == pytest.approx(15.0 * 0.2 - 5.0)

    def test_rejects_short_inflation_path(self):
        with pytest.raises(ValueError, match="run-off"):
            project(toy_policy(), [1.0, 1.0], [1.0, 1.0])

    def test_rejects_unnormalized_index(self):
        with pytest.raises(ValueError, match="valuation date"):
            project(toy_policy(), [1.1, 1.0, 1.0], [1.0, 1.0, 1.0])

    def test_rejects_non_finite_index(self):
        with pytest.raises(ValueError, match="non-finite"):
            project(toy_policy(), [1.0, np.nan, 1.0], [1.0, 1.0, 1.0])


class TestSeasonedRs0:
    """A running policy's provision from its premium: rs0 = A[x] - a[x] * premium."""

    def test_fresh_policy_premium_gives_zero(self):
        premium = project(toy_policy(), np.ones(3), np.ones(3)).premiums_net[0]
        ann, apv = first_order_values(toy_first_order(), 0)
        assert apv - ann * premium == 0.0

    def test_toy_after_one_year(self):
        ann, apv = first_order_values(toy_first_order(), 1)
        assert apv - ann * 10.0 == pytest.approx(10.0, abs=1e-12)

    def test_revalued_benefits_replay_the_reserve_path(self):
        # Observed index 1.02 after one year; premium 10.3; benefits revalued
        # to today's level.  The provision must match the projected RS[1]
        # rebased to an index of 1.
        fo = FirstOrderBasis(k1=np.array([0.0, 0.0, 30.0]) * 1.02, q1=[0.0, 0.0, 1.0], r_calc=0.0)
        ann, apv = first_order_values(fo, 1)
        rs0 = apv - ann * 10.3
        assert rs0 == pytest.approx(10.0, abs=1e-12)
        res = project(toy_policy(), [1.0, 1.02, 1.0404], [1.0, 1.02, 1.0404])
        assert rs0 == pytest.approx(res.reserves[1] / 1.0, abs=1e-12)

    def test_inconsistent_premium_rejected(self):
        # Premium 20 on the toy basis at age 1 implies a negative provision,
        # which no contract may carry.
        fo = toy_first_order()
        ann, apv = first_order_values(fo, 1)
        with pytest.raises(ValueError, match="initial provision"):
            PolicyData(x0=1, fo=fo, so=SecondOrderBasis(k2=fo.k1, q2=fo.q1), rs0=apv - ann * 20.0)


class TestProjectRealRate:
    def test_unit_index_matches_nominal_convention(self):
        policy = toy_policy()
        ones = np.ones(3)
        nominal = project(policy, ones, ones)
        real = project_real_rate(policy, ones)
        assert real.premiums_net == pytest.approx(nominal.premiums_net, abs=1e-15)
        assert real.reserves == pytest.approx(nominal.reserves, abs=1e-15)

    def test_toy_closed_form(self):
        res = project_real_rate(toy_policy(), [1.0, 1.02, 1.0404])
        assert res.premiums_net == pytest.approx([10.0, 10.2, 10.404], abs=1e-12)

    def test_premiums_track_index_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            policy = random_policy(rng, 15)
            i_med = random_inflation_path(rng, policy.run_off)
            res = project_real_rate(policy, i_med)
            p0 = res.premiums_net[0]
            drift = np.max(np.abs(res.premiums_net - i_med * p0)) / max(abs(p0), 1e-12)
            assert drift <= 1e-12


class TestOracleBe:
    def test_empty_portfolio(self):
        s = deterministic_model(toy_curve())
        assert simulate_portfolio([], s).be == 0.0

    def test_toy_worked_example(self):
        curve = toy_curve()
        s = deterministic_model(curve)
        pn, pr = curve.pn, curve.pr
        delayed = (pr[1] / pn[1]) * pn[2]
        expected = -10.0 - 15.0 * pr[1] + 5.0 * pn[1] - 30.0 * pr[2] + 15.0 * delayed + 5.0 * pn[2]
        assert simulate_portfolio([toy_policy()], s).be == pytest.approx(expected, abs=1e-12)

    def test_linearity_in_identical_policies(self):
        s = deterministic_model(toy_curve())
        one = simulate_portfolio([toy_policy()], s).be
        two = simulate_portfolio([toy_policy(), toy_policy()], s).be
        assert two == 2.0 * one

    def test_horizon_shortfall_names_policy(self):
        short = deterministic_model(CurvePair(pn=[1.0, 0.99], pr=[1.0, 1.0]))
        with pytest.raises(ValueError, match="toy-1"):
            simulate_portfolio([toy_policy()], short)

    def test_spread_changes_value(self):
        s = deterministic_model(toy_curve())
        base = simulate_portfolio([toy_policy()], s).be
        spread = simulate_portfolio([toy_policy()], s, InflationSpread(med_spread=0.05)).be
        assert spread != base


class TestCapRule:
    def test_rejects_negative_or_nan_parameters(self):
        for bad in (-0.01, float("nan")):
            with pytest.raises(ValueError, match="abs_increase"):
                CapRule(abs_increase=bad)
            with pytest.raises(ValueError, match="inflation_multiple"):
                CapRule(inflation_multiple=bad)

    def test_decreases_pass_through(self):
        cap = CapRule(abs_increase=0.0, inflation_multiple=1.0)
        assert cap.apply(100.0, 80.0, 1.1) == 80.0

    def test_increase_capped_at_inflation_multiple(self):
        cap = CapRule(abs_increase=0.01, inflation_multiple=1.0)
        assert cap.apply(100.0, 130.0, 1.05) == pytest.approx(105.0)
        assert cap.apply(100.0, 103.0, 1.05) == pytest.approx(103.0)

    def test_absolute_floor_dominates_weak_inflation(self):
        cap = CapRule(abs_increase=0.04, inflation_multiple=1.0)
        assert cap.apply(100.0, 130.0, 1.01) == pytest.approx(104.0)

    def test_capped_projection_tops_up_reserves(self):
        # The reserve path must match the uncapped one: foregone premium is
        # compensated from the insurer's funds.
        policy = inpatient_policy(40)
        horizon = policy.run_off
        index = 1.05 ** np.arange(horizon + 1)
        index[0] = 1.0
        capped = project(policy, index, index, cap=CapRule(0.01, 1.0))
        uncapped = project(policy, index, index)
        assert capped.cap_bound
        assert np.array_equal(capped.reserves, uncapped.reserves)
        assert np.all(capped.premiums_gross <= uncapped.premiums_gross + 1e-12)

    def test_applied_growth_respects_cap_factor(self):
        policy = inpatient_policy(40)
        horizon = policy.run_off
        index = 1.05 ** np.arange(horizon + 1)
        index[0] = 1.0
        cap = CapRule(abs_increase=0.01, inflation_multiple=1.0)
        res = project(policy, index, index, cap=cap)
        growth = res.premiums_gross[1:] / res.premiums_gross[:-1]
        allowed = np.maximum(1.01, index[1:] / index[:-1])
        assert np.all(growth <= allowed * (1.0 + 1e-12))

    def test_capped_be_never_below_uncapped(self):
        rng = np.random.default_rng(5)
        curve = flat_curve(40, 0.02, -0.01)
        s = mc_model(curve, McModelParams(n_paths=60, vol_n=0.02, vol_r=0.01, corr=0.0, seed=9))
        for _ in range(10):
            policy = random_policy(rng, 30, seasoned=False)
            plain = simulate_portfolio([policy], s)
            capped = simulate_portfolio([policy], s, cap=CapRule(0.01, 1.0))
            assert capped.be >= plain.be - 1e-12 * abs(plain.be)

    @pytest.mark.parametrize("seed", range(3))
    def test_capped_pass_carries_the_uncapped_value(self, seed):
        rng = np.random.default_rng(seed)
        portfolio = []
        for x0 in rng.integers(30, 80, 4):
            fo = inpatient_policy(int(x0)).fo
            rs0 = float(rng.uniform(0.0, 0.5)) * benefit_value_at(fo, int(x0))
            portfolio.append(inpatient_policy(int(x0), rs0=rs0))
        s = mc_model(long_curve(100), McModelParams(n_paths=50, vol_n=0.02, vol_r=0.01, corr=0.2, seed=seed))
        spread = InflationSpread(0.01, 0.005)
        plain = simulate_portfolio(portfolio, s, spread)
        assert plain.uncapped is None
        for cap, binds in ((CapRule(0.03, 1.0), True), (CapRule(10.0, 10.0), False)):
            capped = simulate_portfolio(portfolio, s, spread, cap)
            assert capped.cap_bound is binds
            assert capped.uncapped.be == plain.be
            assert np.array_equal(capped.uncapped.per_t, plain.per_t)
            assert (capped.be > plain.be) if binds else (capped.be == plain.be)
            report = be_report(portfolio, s, spread, cap=cap)
            assert report.be_oracle == plain.be
            assert report.be_oracle_capped == capped.be
            assert report.cap_bound is capped.cap_bound


class TestFirstOrderPv:
    def test_unit_stream_is_the_annuity(self):
        fo = toy_first_order()
        assert first_order_pv(fo, 0, np.ones(3), 0.0) == pytest.approx(annuity_at(fo, 0))

    def test_benefit_stream_is_the_benefit_pv(self):
        rng = np.random.default_rng(3)
        fo, _ = random_basis_pair(rng, 8)
        policy_slice = fo.k1[2 : fo.terminal_age + 1]
        got = first_order_pv(fo, 2, policy_slice, fo.r_calc)
        assert got == pytest.approx(benefit_value_at(fo, 2), rel=1e-12)


class TestFigureOneProperty:
    def test_equal_present_value_across_conventions(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            r_nom = float(rng.uniform(-0.01, 0.05))
            r_real = float(rng.uniform(-0.03, r_nom))
            fo, so = random_basis_pair(rng, int(rng.integers(3, 15)))
            fo_nom = FirstOrderBasis(k1=fo.k1, q1=fo.q1, r_calc=r_nom)
            fo_real = FirstOrderBasis(k1=fo.k1, q1=fo.q1, r_calc=r_real)
            policy_nom = PolicyData(x0=0, fo=fo_nom, so=so)
            policy_real = PolicyData(x0=0, fo=fo_real, so=so)
            horizon = policy_nom.run_off
            index = ((1.0 + r_nom) / (1.0 + r_real)) ** np.arange(horizon + 1)
            index[0] = 1.0
            res_nom = project(policy_nom, index, index)
            res_real = project_real_rate(policy_real, index)
            pv_nom = first_order_pv(fo_nom, 0, res_nom.premiums_net, r_nom)
            pv_real = first_order_pv(fo_nom, 0, res_real.premiums_net, r_nom)
            assert pv_nom == pytest.approx(pv_real, rel=1e-9)
