import json
import mmap
import os
import signal
from pathlib import Path
from types import SimpleNamespace

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
    aggregate,
    be_report,
    deterministic_model,
    first_order_pv,
    mc_model,
    project,
    project_real_rate,
    simulate_portfolio,
)
from healthval import cli, policy_engine
from healthval.io_files import load_portfolio

from conftest import (
    FIXTURES,
    U,
    flat_curve,
    gamma,
    inpatient_policy,
    long_curve,
    random_basis_pair,
    random_inflation_path,
    random_policy,
    random_scenario_set,
    run_script,
    toy_curve,
    toy_first_order,
    toy_policy,
    traced_peak,
)


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
    """The annuity factor and benefit value a contract entering at x reads at t = 0."""
    return float(fo.annuity[x]), float(fo.benefit_value[x])


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


def backward_value_tables(fo: FirstOrderBasis, x: int) -> tuple[np.ndarray, np.ndarray]:
    """Annuity factors and benefit PVs for ages x..omega, recursing from omega down to x."""
    omega = fo.terminal_age
    ann, apv = [1.0], [float(fo.k1[omega])]
    for age in range(omega - 1, x - 1, -1):
        disc = (1.0 - fo.q1[age]) / (1.0 + fo.r_calc)
        ann.insert(0, 1.0 + disc * ann[0])
        apv.insert(0, fo.k1[age] + disc * apv[0])
    return np.array(ann), np.array(apv)


class TestAgeTables:
    @pytest.mark.parametrize("name", ["toy", "inpatient"])
    def test_age_table_slices_equal_a_backward_recursion_from_every_entry_age(self, fixtures_dir, name):
        # The basis computes its tables once for ages 0..omega; a contract
        # entering at x must see exactly what a recursion stopping at x gives.
        portfolio = load_portfolio(fixtures_dir / f"portfolio_{name}.csv", fixtures_dir / "tables")
        bases = {id(p.fo): p.fo for p in portfolio}
        assert len(bases) == 1
        (fo,) = bases.values()
        so = SecondOrderBasis(k2=fo.k1, q2=fo.q1)
        for x in range(fo.terminal_age + 1):
            ages = slice(x, x + PolicyData(x0=x, fo=fo, so=so).run_off + 1)
            ann, apv = backward_value_tables(fo, x)
            assert np.array_equal(fo.annuity[ages], ann[: ages.stop - x])
            assert np.array_equal(fo.benefit_value[ages], apv[: ages.stop - x])


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
            ages = slice(policy.x0, policy.x0 + policy.run_off + 1)
            i_med = random_inflation_path(rng, policy.run_off)
            res = project(policy, i_med, i_med)
            lhs = res.reserves + policy.fo.annuity[ages] * res.premiums_net
            rhs = i_med * policy.fo.benefit_value[ages]
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

    def test_rejects_more_than_one_path(self):
        # A second row would be ignored: each route takes one path of levels.
        path, rows = [1.0, 1.02, 1.04], [[1.0, 1.02, 1.04], [1.0, 1.5, 3.0]]
        for name, call in (
            ("i_med", lambda: project(toy_policy(), rows, path)),
            ("i_cost", lambda: project(toy_policy(), path, rows)),
            ("i_med", lambda: project_real_rate(toy_policy(), rows)),
            ("i_med", lambda: project(toy_policy(), 1.0, path)),
        ):
            with pytest.raises(ValueError, match=rf"^{name} must be one path of index levels \(1-D\), got shape"):
                call()

    def test_overflow_is_rejected_as_non_finite(self):
        # A benefit of 1e308 on an index of 4 at t = 2 overflows the cash flow.
        policy = toy_policy()
        so = SecondOrderBasis(k2=[0.0, 0.0, 1e308], q2=policy.so.q2)
        policy = PolicyData(x0=0, fo=policy.fo, so=so, id="big")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"^policy 'big': projection produced non-finite values$"):
                project(policy, [1.0, 2.0, 4.0], [1.0, 2.0, 4.0])


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

    @pytest.mark.parametrize("x0", [25, 50, 80])
    def test_bitwise_equal_to_reference(self, x0):
        # The real-rate recursion restated from its formulas alone: the
        # nominal roll-up (rs + net - i * k1) * growth, then * i[t+1] / i[t].
        # A division by a scalar is a multiplication by its reciprocal.
        policy = inpatient_policy(x0, rs0=300.0)
        i = random_inflation_path(np.random.default_rng(x0), policy.run_off)
        fo, so = policy.fo, policy.so
        rs, surv2 = policy.rs0, 1.0
        net, gross, reserves, cashflow = ([] for _ in range(4))
        for t in range(policy.run_off + 1):
            x = x0 + t
            reserves.append(rs)
            net.append((i[t] * fo.benefit_value[x] - rs) * (1.0 / fo.annuity[x]))
            gross.append((net[t] + i[t] * fo.c1) * (1.0 / (1.0 - fo.margin)))
            cashflow.append((gross[t] - i[t] * so.k2[x] - i[t] * so.c2) * surv2)
            if t < policy.run_off:
                rs = (rs + net[t] - i[t] * fo.k1[x]) * ((1.0 + fo.r_calc) / (1.0 - fo.q1[x]))
                rs = rs * (i[t + 1] / i[t])
                surv2 *= 1.0 - so.q2[x]
        res = project_real_rate(policy, i)
        assert np.array_equal(res.premiums_net, net)
        assert np.array_equal(res.premiums_gross, gross)
        assert np.array_equal(res.reserves, reserves)
        assert np.array_equal(res.cashflow, cashflow)


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


def cap_one_step(cap: CapRule, prev: float, proposed: float, step: float) -> float:
    """The applied premium after one date on one path, through the kernel's CapRule calls."""
    applied = np.array([prev])
    factor = cap.allowed_factor(np.array([1.0]), np.array([step]))
    cap.apply(applied, np.array([proposed]), factor, np.empty(1, dtype=bool))
    return float(applied[0])


class TestCapRule:
    def test_rejects_negative_or_nan_parameters(self):
        for bad in (-0.01, float("nan")):
            with pytest.raises(ValueError, match="abs_increase"):
                CapRule(abs_increase=bad)
            with pytest.raises(ValueError, match="inflation_multiple"):
                CapRule(inflation_multiple=bad)

    def test_decreases_pass_through(self):
        cap = CapRule(abs_increase=0.0, inflation_multiple=1.0)
        assert cap_one_step(cap, 100.0, 80.0, 1.1) == 80.0

    def test_increase_capped_at_inflation_multiple(self):
        cap = CapRule(abs_increase=0.01, inflation_multiple=1.0)
        assert cap_one_step(cap, 100.0, 130.0, 1.05) == pytest.approx(105.0)
        assert cap_one_step(cap, 100.0, 103.0, 1.05) == pytest.approx(103.0)

    def test_absolute_floor_dominates_weak_inflation(self):
        cap = CapRule(abs_increase=0.04, inflation_multiple=1.0)
        assert cap_one_step(cap, 100.0, 130.0, 1.01) == pytest.approx(104.0)

    def test_non_positive_base_passes_through(self):
        cap = CapRule(abs_increase=0.0, inflation_multiple=1.0)
        for prev in (0.0, -5.0):
            assert cap_one_step(cap, prev, 130.0, 1.01) == 130.0

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

    @pytest.mark.parametrize("seed", range(3))
    def test_capped_value_matches_a_scalar_reference(self, seed):
        # Rebuild the capped cash flow path by path from the uncapped gross
        # premiums, applying the rule as CapRule states it, one date at a time.
        rng = np.random.default_rng(10 + seed)
        portfolio = []
        for x0 in rng.integers(30, 80, 4):
            fo = inpatient_policy(int(x0)).fo
            rs0 = float(rng.uniform(0.1, 0.5)) * benefit_value_at(fo, int(x0))
            portfolio.append(inpatient_policy(int(x0), rs0=rs0))
        s = mc_model(long_curve(100), McModelParams(n_paths=30, vol_n=0.02, vol_r=0.01, corr=0.2, seed=seed))
        spread = InflationSpread(0.01, 0.005)
        cap = CapRule(abs_increase=0.03, inflation_multiple=1.0)
        i_med, i_cost = spread.index(s, "med", np.s_[:, :]), spread.index(s, "cost", np.s_[:, :])
        per_t = [0.0] * (max(p.run_off for p in portfolio) + 1)
        for policy in portfolio:
            surv2 = policy.surv2
            for k in range(s.n_paths):
                res = project(policy, i_med[k], i_cost[k])
                gross = [float(g) for g in res.premiums_gross]
                applied = [gross[0]]
                for t in range(1, len(gross)):
                    prev, step = applied[-1], i_cost[k, t] / i_cost[k, t - 1]
                    factor = max(1.0 + cap.abs_increase, cap.inflation_multiple * step)
                    applied.append(min(gross[t], prev * factor) if prev > 0.0 else gross[t])
                for t, (cf, a, g) in enumerate(zip(res.cashflow, applied, gross)):
                    per_t[t] -= s.weights[k] * (cf + (a - g) * surv2[t]) / s.bn[k, t]
        capped = simulate_portfolio(portfolio, s, spread, cap)
        assert capped.cap_bound
        assert capped.be > capped.uncapped.be
        scale = max(abs(v) for v in per_t)
        assert np.max(np.abs(capped.per_t - per_t)) <= 1e-12 * scale
        assert abs(capped.be - sum(per_t)) <= 1e-12 * abs(sum(per_t))


def reference_simulate_portfolio(portfolio, s, spread, cap=None):
    """The brute-force sums from the formulas alone, policy by policy on path-major arrays.

    Each element gets the formulas' operations in the order the module
    documents them: a division by a scalar is a multiplication by its
    reciprocal, and a flow before survival is summed against the date's
    discount row by ``np.einsum``, the sum then weighed by ``surv2[t]``.
    ``per_t[t]`` subtracts the policies' sums in portfolio order, so
    ``simulate_portfolio`` must match it bit for bit.  Returns
    ``(per_t, per_t_uncapped, cap_bound)``.
    """
    horizon = max((p.run_off for p in portfolio), default=0)
    per_t, per_t_uncapped = np.zeros(horizon + 1), np.zeros(horizon + 1)
    bound = False
    dates = np.arange(s.horizon + 1)
    i_med = (s.bn / s.br) * (1.0 + spread.med_spread) ** dates
    i_cost = (s.bn / s.br) * (1.0 + spread.cost_spread) ** dates
    # Date-major, so each date's discount row is contiguous like the kernel's.
    disc = np.ascontiguousarray((s.weights[:, None] / s.bn).T)
    for p in portfolio:
        fo, so, x0 = p.fo, p.so, p.x0
        rs = np.full(s.n_paths, p.rs0)
        surv2 = 1.0
        applied = None
        for t in range(p.run_off + 1):
            im, ic = i_med[:, t], i_cost[:, t]
            net = (im * fo.benefit_value[x0 + t] - rs) * (1.0 / fo.annuity[x0 + t])
            gross = (net + ic * fo.c1) * (1.0 / (1.0 - fo.margin))
            benefits, costs = im * so.k2[x0 + t], ic * so.c2
            if cap is None or t == 0:
                applied = gross
            else:
                factor = np.maximum(ic / i_cost[:, t - 1] * cap.inflation_multiple, 1.0 + cap.abs_increase)
                applied = np.where(applied <= 0.0, gross, np.minimum(gross, applied * factor))
            per_t[t] -= np.einsum("k,k->", disc[t], applied - benefits - costs) * surv2
            if cap is not None:
                per_t_uncapped[t] -= np.einsum("k,k->", disc[t], gross - benefits - costs) * surv2
                bound = bound or (surv2 > 0.0 and bool(np.any(applied < gross)))
            if t < p.run_off:
                rs = (rs + net - im * fo.k1[x0 + t]) * ((1.0 + fo.r_calc) / (1.0 - fo.q1[x0 + t]))
                surv2 *= 1.0 - so.q2[x0 + t]
    return per_t, per_t_uncapped, bound


def previous_simulate_portfolio(portfolio, s, spread, cap=None):
    """The brute-force sums by the kernel's previous order of operations, and how far the kernel may lie from them.

    The previous kernel divided by a[x] and by 1 - margin, weighed each
    flow by surv2[t] path by path, and summed disc * flow over the paths
    pairwise (``.sum()``).  Returns ``(per_t, bound)``, each (2, dates):
    row 0 the capped figures (the only ones without a cap), row 1 the
    uncapped ones under a cap; ``bound[r, t]`` bounds the distance of
    the kernel's ``per_t[t]`` from ``per_t[r, t]`` here.

    The bound, first order in the unit roundoff u, path by path.  Both
    routes round the products im * A, ic * c1, im * k2, ic * c2, im * k1,
    the discount row and the scalars (1 - margin, the roll-up g) alike, so
    only the rest counts.  From its own reserve, each route's net lies
    within gamma_2 (here) or gamma_3 (the kernel) of (im A - rs) / a
    relative to |im A| + |rs|, and its gross within gamma_2 or gamma_3 of
    (net + ic c1) / (1 - margin) relative to |net| + |ic c1|.  A reserve
    gap d moves net by -d / a, so the next reserve gap is g ((1 - 1/a) d
    + the net rounding + 2 gamma_3 (|rs| + |net| + |im k1|)): with
    a[x] = 1 + a[x+1] / g the gap grows by a[x+1] / a[x] a date, its
    growth through the reserve recursion.  The cap's min moves no gap;
    its product of the applied premium and the factor adds 2u of it.
    Each flow, P - benefits - costs, rounds within gamma_2 of itself
    relative to |P| + |benefits| + |costs| in each route.  The sums over
    the n paths, here with survival inside and there times the scalar,
    each lie within gamma_{n+1} surv2 sum |disc flow| of the exact one,
    and ``per_t`` subtracts the policies' sums in each route within
    gamma_P of the sum of their magnitudes.  The magnitudes are this
    route's; the factor 1.01 covers the kernel's own, which lie within
    about 1e-12 of them, and every term of second order in u.
    """
    horizon = max((p.run_off for p in portfolio), default=0)
    per_t, bound, magnitude = np.zeros((3, 2, horizon + 1))
    dates = np.arange(s.horizon + 1)
    i_med = (s.bn / s.br) * (1.0 + spread.med_spread) ** dates
    i_cost = (s.bn / s.br) * (1.0 + spread.cost_spread) ** dates
    disc = s.weights[:, None] / s.bn
    g2, g3, gn = gamma(2), gamma(3), gamma(s.n_paths + 1)
    for p in portfolio:
        fo, so, x0 = p.fo, p.so, p.x0
        rs, d_rs = np.full(s.n_paths, p.rs0), np.zeros(s.n_paths)
        surv2 = 1.0
        applied = d_applied = None
        for t in range(p.run_off + 1):
            x, im, ic = x0 + t, i_med[:, t], i_cost[:, t]
            a, loading = fo.annuity[x], 1.0 - fo.margin
            benefit_value, first_cost = im * fo.benefit_value[x], ic * fo.c1
            net = (benefit_value - rs) / a
            gross = (net + first_cost) / loading
            benefits, costs = im * so.k2[x], ic * so.c2
            rounding_net = (g2 + g3) * (np.abs(benefit_value) + np.abs(rs)) / a
            d_gross = (d_rs / a + rounding_net + (g2 + g3) * (np.abs(net) + np.abs(first_cost))) / loading
            if cap is None or t == 0:
                applied, d_applied = gross, d_gross
            else:
                factor = np.maximum(ic / i_cost[:, t - 1] * cap.inflation_multiple, 1.0 + cap.abs_increase)
                raised = applied * factor
                d_raised = factor * d_applied + 2.0 * U * np.abs(raised)
                passthrough = applied <= 0.0
                applied = np.where(passthrough, gross, np.minimum(gross, raised))
                d_applied = np.where(passthrough, d_gross, np.maximum(d_gross, d_raised))
            flows = [(applied, d_applied)] + ([] if cap is None else [(gross, d_gross)])
            for row, (premium, d_premium) in enumerate(flows):
                flow = premium - benefits - costs
                total = (disc[:, t] * (flow * surv2)).sum()
                d_flow = d_premium + 2.0 * g2 * (np.abs(premium) + np.abs(benefits) + np.abs(costs))
                per_t[row, t] -= total
                bound[row, t] += surv2 * (disc[:, t] @ d_flow + 2.0 * gn * (disc[:, t] @ np.abs(flow)))
                magnitude[row, t] += abs(total)
            if t < p.run_off:
                growth = (1.0 + fo.r_calc) / (1.0 - fo.q1[x])
                first_benefit = im * fo.k1[x]
                d_rs = growth * (
                    (1.0 - 1.0 / a) * d_rs
                    + rounding_net
                    + 2.0 * g3 * (np.abs(rs) + np.abs(net) + np.abs(first_benefit))
                )
                rs = (rs + net - first_benefit) * growth
                surv2 *= 1.0 - so.q2[x]
    return per_t, 1.01 * (bound + 2.0 * gamma(len(portfolio)) * magnitude)


@pytest.fixture
def force_shares(monkeypatch):
    """``force_shares(n)``: simulate_portfolio then cuts every portfolio into up to n shares."""

    def force(n_shares: int) -> None:
        monkeypatch.setattr(policy_engine, "_SHARE_WORK", 1)
        monkeypatch.setattr(policy_engine, "_cpus", lambda: n_shares)

    return force


def assert_no_child_left():
    """No child of this process is running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def shared_mappings() -> int:
    """Anonymous shared mappings of this process, which Linux lists as /dev/zero."""
    return Path("/proc/self/maps").read_text().count("/dev/zero (deleted)")


def policy_running(rng: np.random.Generator, run_off: int, policy_id: str) -> PolicyData:
    """A seasoned policy on random bases whose run-off is exactly ``run_off`` years."""
    fo, so = random_basis_pair(rng, run_off + 2)
    return PolicyData(x0=2, fo=fo, so=so, rs0=float(rng.uniform(0.0, 50.0)), id=policy_id)


class TestSimulatePortfolioMatchesReference:
    CAP = CapRule(abs_increase=0.03, inflation_multiple=1.0)

    def assert_matches_reference(self, portfolio, s, spread, cap):
        got = simulate_portfolio(portfolio, s, spread, cap)
        per_t, per_t_uncapped, bound = reference_simulate_portfolio(portfolio, s, spread, cap)
        assert np.array_equal(got.per_t, per_t)
        assert got.be == float(per_t.sum())
        assert got.cap_bound is bound
        if cap is None:
            assert got.uncapped is None
        else:
            assert np.array_equal(got.uncapped.per_t, per_t_uncapped)
            assert got.uncapped.be == float(per_t_uncapped.sum())
        return got

    @pytest.mark.parametrize("spread", [InflationSpread(), InflationSpread(0.01, 0.005)])
    def test_bitwise_equal_to_reference(self, spread):
        portfolio = [inpatient_policy(40, rs0=800.0), inpatient_policy(75), inpatient_policy(21)]
        curve = long_curve(100)
        for s in (
            mc_model(curve, McModelParams(n_paths=60, vol_n=0.02, vol_r=0.01, corr=0.25, seed=5)),
            random_scenario_set(np.random.default_rng(6), 100, 40),
        ):
            self.assert_matches_reference(portfolio, s, spread, None)
            self.assert_matches_reference(portfolio, s, spread, self.CAP)

    @pytest.mark.parametrize("spread", [InflationSpread(), InflationSpread(0.01, 0.005)])
    def test_within_the_derived_bound_of_the_previous_formulas(self, spread):
        # The kernel's per_t and be, capped and uncapped, against the
        # previous order of operations, within the bound that
        # `previous_simulate_portfolio` derives; be sums per_t pairwise in
        # each route, within gamma_{T+1} of the sum of |per_t|.
        portfolio = [inpatient_policy(40, rs0=800.0), inpatient_policy(75), inpatient_policy(21)]
        for s in (
            mc_model(long_curve(100), McModelParams(n_paths=60, vol_n=0.02, vol_r=0.01, corr=0.25, seed=5)),
            random_scenario_set(np.random.default_rng(6), 100, 40),
        ):
            for cap in (None, self.CAP):
                got = simulate_portfolio(portfolio, s, spread, cap)
                per_t, bound = previous_simulate_portfolio(portfolio, s, spread, cap)
                results = [got] if cap is None else [got, got.uncapped]
                for result, previous, within in zip(results, per_t, bound):
                    assert np.all(np.abs(result.per_t - previous) <= within)
                    be_bound = within.sum() + 2.0 * gamma(len(previous)) * np.abs(previous).sum()
                    assert abs(result.be - previous.sum()) <= be_bound
                    # The bound is no blanket: under 1e-12 of the value.
                    assert be_bound <= 1e-12 * np.abs(previous).sum()

    def test_sums_do_not_follow_the_blas_thread_count(self):
        # One process per OpenBLAS thread count, each running the brute
        # force, capped and uncapped, on 20 000 paths: a BLAS dot product
        # over the paths gave other bits on 2 threads above about 12 000.
        script = """
            import hashlib
            from conftest import inpatient_policy, long_curve
            from healthval import CapRule, InflationSpread, McModelParams, mc_model, simulate_portfolio
            params = McModelParams(n_paths=20_000, vol_n=0.015, vol_r=0.008, corr=0.25, seed=5)
            s = mc_model(long_curve(100), params)
            portfolio = [inpatient_policy(40, rs0=800.0), inpatient_policy(75)]
            digest = hashlib.sha256()
            for cap in (None, CapRule(abs_increase=0.03, inflation_multiple=1.0)):
                result = simulate_portfolio(portfolio, s, InflationSpread(0.01, 0.005), cap)
                digest.update(result.per_t.tobytes())
                if cap is not None:
                    assert result.cap_bound
                    digest.update(result.uncapped.per_t.tobytes())
            print(digest.hexdigest())
            """
        digests = {run_script(script, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")}
        assert len(digests) == 1

    @staticmethod
    def several_groups():
        # Horizon 10: a group holds 11 policies, 5 under a cap.  The run-offs
        # end inside groups, and the longest runs sit on group boundaries.
        rng = np.random.default_rng(18)
        run_offs = [10, 3, 7, 1, 10, 5, 2, 9, 10, 4, 10, 8]
        portfolio = [policy_running(rng, r, f"p{k}") for k, r in enumerate(run_offs)]
        assert [p.run_off for p in portfolio] == run_offs
        return portfolio, (
            mc_model(flat_curve(10, 0.02, 0.005), McModelParams(n_paths=30, vol_n=0.05, vol_r=0.03, corr=0.2, seed=3)),
            random_scenario_set(np.random.default_rng(7), 10, 25),
        )

    @pytest.mark.parametrize("spread", [InflationSpread(), InflationSpread(0.01, 0.005)])
    def test_bitwise_equal_to_reference_over_several_groups(self, spread):
        portfolio, sets = self.several_groups()
        for s in sets:
            self.assert_matches_reference(portfolio, s, spread, None)
            capped = self.assert_matches_reference(portfolio, s, spread, self.CAP)
            assert capped.cap_bound

    @pytest.mark.parametrize(
        ("n_shares", "bounds"), [(2, [(0, 7), (7, 12)]), (3, [(0, 4), (4, 8), (8, 12)])]
    )
    def test_bitwise_equal_to_reference_in_shares_that_cut_groups(self, force_shares, n_shares, bounds):
        # The shares split the work, n_paths * (run_off + 1), about evenly;
        # every cut falls inside a group of 11, and of 5 under a cap.
        portfolio, sets = self.several_groups()
        force_shares(n_shares)
        for s in sets:
            assert policy_engine._share_bounds(portfolio, s.n_paths) == bounds
            for spread in (InflationSpread(), InflationSpread(0.01, 0.005)):
                self.assert_matches_reference(portfolio, s, spread, None)
                assert_no_child_left()
                capped = self.assert_matches_reference(portfolio, s, spread, self.CAP)
                assert_no_child_left()
                assert capped.cap_bound

    def test_cap_bound_only_in_a_child_share_is_reported(self, force_shares):
        # A policy with no date after t = 0 meets no cap, so the eleven in
        # the first share never bind; the one policy in the second does.
        rng = np.random.default_rng(21)
        portfolio = [policy_running(rng, 0, f"p{k}") for k in range(11)] + [policy_running(rng, 10, "p11")]
        s = random_scenario_set(np.random.default_rng(7), 10, 25)
        force_shares(2)
        assert policy_engine._share_bounds(portfolio, s.n_paths) == [(0, 11), (11, 12)]
        assert not simulate_portfolio(portfolio[:11], s, cap=self.CAP).cap_bound
        assert self.assert_matches_reference(portfolio, s, InflationSpread(), self.CAP).cap_bound
        assert_no_child_left()

    def test_each_share_carries_the_break_even_work(self, monkeypatch):
        # Work is n_paths * (run_off + 1): four 10-date policies need
        # 2 * _SHARE_WORK for two shares, however many CPUs there are.
        monkeypatch.setattr(policy_engine, "_cpus", lambda: 8)
        rng = np.random.default_rng(20)
        portfolio = [policy_running(rng, 9, f"p{k}") for k in range(4)]
        paths = 2 * policy_engine._SHARE_WORK // 40
        assert policy_engine._share_bounds(portfolio, paths - 1) == [(0, 4)]
        assert policy_engine._share_bounds(portfolio, paths) == [(0, 2), (2, 4)]
        assert policy_engine._share_bounds([], paths) == [(0, 0)]

    def test_empty_portfolio(self):
        s = random_scenario_set(np.random.default_rng(8), 10, 5)
        for cap in (None, self.CAP):
            got = self.assert_matches_reference([], s, InflationSpread(), cap)
            assert got.per_t.tolist() == [0.0]
            assert got.be == 0.0 and not got.cap_bound

    @staticmethod
    def overflowing():
        # On i[t] = 2^t a benefit of 1e308 overflows at every date t >= 1.
        # Policies p11 and p12 share a group either way (11 or 5 to a
        # group); p12 overflows at t = 1, p11 only at t = 8, and p11 comes
        # first in the portfolio.
        s = deterministic_model(flat_curve(10, 0.0, -0.5))
        rng = np.random.default_rng(19)
        portfolio = [policy_running(rng, 10, f"p{k}") for k in range(14)]
        for k, age in ((11, 8), (12, 1)):
            policy = portfolio[k]
            k2 = policy.so.k2.copy()
            k2[policy.x0 + age] = 1e308
            so = SecondOrderBasis(k2=k2, q2=policy.so.q2, c2=policy.so.c2)
            portfolio[k] = PolicyData(x0=policy.x0, fo=policy.fo, so=so, rs0=policy.rs0, id=policy.id)
        return portfolio, s

    def test_non_finite_in_a_later_group_names_first_policy_in_portfolio_order(self):
        portfolio, s = self.overflowing()
        for cap in (None, self.CAP):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match=r"^policy 'p11': projection produced non-finite values$"):
                    simulate_portfolio(portfolio, s, cap=cap)
            simulate_portfolio(portfolio[:11], s, cap=cap)

    @pytest.mark.parametrize(("n_shares", "shares_of"), [(2, (1, 1)), (3, (2, 2)), (7, (5, 6))])
    def test_non_finite_in_a_child_names_first_policy_in_portfolio_order(self, force_shares, n_shares, shares_of):
        # p11 and p12 fall in a child's share, together or (7 shares of
        # two) in two children, the later one overflowing first.
        portfolio, s = self.overflowing()
        force_shares(n_shares)
        bounds = policy_engine._share_bounds(portfolio, s.n_paths)
        assert tuple(next(i for i, (a, b) in enumerate(bounds) if a <= k < b) for k in (11, 12)) == shares_of
        for cap in (None, self.CAP):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match=r"^policy 'p11': projection produced non-finite values$"):
                    simulate_portfolio(portfolio, s, cap=cap)
            assert_no_child_left()

    @pytest.mark.parametrize("failing", ["p9", "p0"])
    def test_an_exception_in_any_share_is_raised_as_it_was(self, force_shares, monkeypatch, failing):
        # p9 steps in a child, which ends with status 1, so this process
        # steps p9's share again and raises the exception itself; p0 steps
        # here, while the children are still running and get killed.
        portfolio, sets = self.several_groups()
        step = policy_engine._step

        def failing_step(policy, t, *args):
            if policy.id == failing and t == 2:
                raise ArithmeticError(f"step of {policy.id} at t = {t} failed")
            step(policy, t, *args)

        monkeypatch.setattr(policy_engine, "_step", failing_step)
        force_shares(3)
        for cap in (None, self.CAP):
            with pytest.raises(ArithmeticError, match=rf"^step of {failing} at t = 2 failed$"):
                simulate_portfolio(portfolio, sets[0], cap=cap)
            assert_no_child_left()

    @staticmethod
    def kill_children_at_step(monkeypatch, t_kill: int) -> set:
        """Patch `_step` so a forked child kills itself with SIGKILL at date ``t_kill``.

        Returns the set of the policy ids that this process steps.
        """
        step, here, stepped_here = policy_engine._step, os.getpid(), set()

        def killing_step(policy, t, *args):
            if os.getpid() != here:
                if t == t_kill:
                    os.kill(os.getpid(), signal.SIGKILL)
            else:
                stepped_here.add(policy.id)
            step(policy, t, *args)

        monkeypatch.setattr(policy_engine, "_step", killing_step)
        return stepped_here

    @pytest.mark.parametrize("n_shares", [2, 3])
    def test_a_share_whose_child_is_killed_is_stepped_again_with_the_same_bits(
        self, force_shares, monkeypatch, n_shares
    ):
        # Every child dies at t = 3 of its first policy; this process steps
        # each of their shares again, so it steps every policy itself.
        portfolio, sets = self.several_groups()
        s = sets[0]
        force_shares(1)
        one_share = {cap: simulate_portfolio(portfolio, s, cap=cap) for cap in (None, self.CAP)}
        stepped_here = self.kill_children_at_step(monkeypatch, 3)
        force_shares(n_shares)
        assert len(policy_engine._share_bounds(portfolio, s.n_paths)) == n_shares
        mappings = shared_mappings()
        for cap, want in one_share.items():
            stepped_here.clear()
            got = simulate_portfolio(portfolio, s, cap=cap)
            assert_no_child_left()
            assert shared_mappings() == mappings
            assert stepped_here == {p.id for p in portfolio}
            assert np.array_equal(got.per_t, want.per_t)
            assert got.be == want.be and got.cap_bound is want.cap_bound
            if cap is None:
                assert got.uncapped is None
            else:
                assert np.array_equal(got.uncapped.per_t, want.uncapped.per_t)
                assert got.uncapped.be == want.uncapped.be

    def test_a_share_whose_fork_fails_is_stepped_here(self, force_shares, monkeypatch):
        # os.fork fails as it does at the process limit (EAGAIN), so this
        # process steps all three shares itself.
        portfolio, sets = self.several_groups()
        s = sets[0]
        force_shares(1)
        one_share = simulate_portfolio(portfolio, s, cap=self.CAP)
        forks = []

        def failing_fork():
            forks.append(None)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        force_shares(3)
        got = simulate_portfolio(portfolio, s, cap=self.CAP)
        assert len(forks) == 2
        assert np.array_equal(got.per_t, one_share.per_t)
        assert np.array_equal(got.uncapped.per_t, one_share.uncapped.per_t)
        assert got.cap_bound is one_share.cap_bound

    def test_simulate_cap_writes_the_same_bytes_when_a_child_is_killed(self, force_shares, monkeypatch, tmp_path):
        # The shipped inpatient contract at four entry ages splits into the
        # shares (0, 1) and (1, 4): the shipped two policies are one share.
        rows = (FIXTURES / "portfolio_inpatient.csv").read_text().splitlines()
        header, row = rows[0], rows[1].split(",", 2)[2]
        ids = [f"inpatient-{x0}" for x0 in (25, 35, 45, 55)]
        lines = [header, *(f"{policy_id},{policy_id[-2:]},{row}" for policy_id in ids)]
        (tmp_path / "portfolio.csv").write_text("\n".join(lines) + "\n")
        payload = json.loads((FIXTURES / "config_inpatient.json").read_text())
        payload.update(
            curves=str(FIXTURES / payload["curves"]),
            tables_dir=str(FIXTURES / payload["tables_dir"]),
            portfolio=str(tmp_path / "portfolio.csv"),
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        force_shares(2)
        portfolio = load_portfolio(tmp_path / "portfolio.csv", FIXTURES / "tables")
        assert policy_engine._share_bounds(portfolio, 2000) == [(0, 1), (1, 4)]
        runs = {}
        for name in ("undisturbed", "killed"):
            if name == "killed":
                stepped_here = self.kill_children_at_step(monkeypatch, 3)
            out = tmp_path / name
            assert cli.main(["simulate", "--cap", "--config", str(config), "--out", str(out)]) == 0
            assert_no_child_left()
            runs[name] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert stepped_here == set(ids)
        assert runs["killed"] == runs["undisturbed"]


class TestSimulatePortfolioMemory:
    """Peak allocation of the brute force in (paths x dates) float64 arrays beyond the set's own."""

    N_PATHS = 4000
    UNIT = 8 * N_PATHS * 101
    SPREAD = InflationSpread(0.01, 0.005)
    CAP = CapRule(abs_increase=0.03, inflation_multiple=1.0)

    def inputs(self):
        params = McModelParams(n_paths=self.N_PATHS, vol_n=0.015, vol_r=0.008, corr=0.25, seed=1)
        s = mc_model(long_curve(100), params)
        return [inpatient_policy(21 + k, rs0=10.0 * k) for k in range(40)], s

    # tracemalloc sees only this process, so the three bounds below run on
    # one share, which steps every policy here.  Nor does it see the
    # shared mapping of per-policy sums, so ``peak`` adds the mapping's
    # bytes.

    @pytest.fixture
    def peak(self, monkeypatch):
        """``peak(call)``: the traced peak of ``call()`` plus the bytes of the mappings it made."""
        mapped = []

        def recording(fileno, length, *args, **kwargs):
            mapped.append(length)
            return mmap.mmap(fileno, length, *args, **kwargs)

        monkeypatch.setattr(policy_engine, "mmap", SimpleNamespace(mmap=recording))

        def measure(call) -> int:
            mapped.clear()
            traced = traced_peak(call)
            assert mapped, "the call mapped no memory"
            return traced + sum(mapped)

        return measure

    def test_capped_simulate_portfolio_holds_under_one_and_a_half_scenario_arrays(self, force_shares, peak):
        # The group's reserves and applied premiums, 0.8 for 40 policies,
        # plus path-length rows and the mapped sums, 0.02: one full-size
        # table of the indices, the discount or the cap factors crosses
        # the bound.
        portfolio, s = self.inputs()
        force_shares(1)
        assert peak(lambda: simulate_portfolio(portfolio, s, self.SPREAD, self.CAP)) / self.UNIT < 1.5

    def test_capped_be_report_holds_under_one_and_a_half_scenario_arrays(self, force_shares, peak):
        # The group's state, 0.8 for 40 policies, sets the peak, about 1.0:
        # the pricers walk the paths in row blocks, so one full-size array
        # of theirs crosses the bound.
        portfolio, s = self.inputs()
        force_shares(1)
        assert peak(lambda: be_report(portfolio, s, self.SPREAD, cap=self.CAP)) / self.UNIT < 1.5

    def test_capped_simulate_portfolio_holds_one_group_at_a_time(self, force_shares, peak):
        # 400 policies make eight groups of 50 under a cap, each with about
        # one unit of state, and their mapped sums take 0.08.  A group's
        # state is released before the next one's is allocated, so the peak
        # stays about 1.2; two groups' state at once takes it past 2.
        _, s = self.inputs()
        portfolio = [inpatient_policy(80 + k % 20, rs0=10.0 * k) for k in range(400)]
        force_shares(1)
        assert peak(lambda: simulate_portfolio(portfolio, s, self.SPREAD, self.CAP)) / self.UNIT < 1.5

    def test_shares_hold_no_more_here_than_one_share(self, force_shares):
        # This process steps only the first share and keeps the others'
        # per-date sums, (policies x dates) per share.
        portfolio, s = self.inputs()
        peaks = {}
        for n_shares in (1, 4):
            force_shares(n_shares)
            peaks[n_shares] = traced_peak(lambda: simulate_portfolio(portfolio, s, self.SPREAD, self.CAP))
            assert_no_child_left()
        assert peaks[4] <= peaks[1]

    def test_no_route_leaves_an_array_on_the_policy(self):
        # Each route holds a policy's survival vector only while it steps
        # the policy; nothing stays behind in the policy's own attributes.
        s = deterministic_model(long_curve(100))
        path = np.ones(101)
        routes = {
            "simulate_portfolio": lambda p: simulate_portfolio([p], s, self.SPREAD, self.CAP),
            "aggregate": lambda p: aggregate([p]),
            "project": lambda p: project(p, path, path, self.CAP),
        }
        for name, route in routes.items():
            policy = inpatient_policy(30, rs0=5.0)
            route(policy)
            arrays = [key for key, value in vars(policy).items() if isinstance(value, np.ndarray)]
            assert arrays == [], name


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


class TestOracleDigits:
    """Golden figures of the brute-force kernel, pinned bit for bit.

    Any rewrite of the premium recursion must keep these; a change that
    moves them changes every oracle figure the reports print.
    """

    def test_seeded_capped_portfolio(self):
        rng = np.random.default_rng(2024)
        portfolio = []
        for x0 in rng.integers(30, 80, 4):
            fo = inpatient_policy(int(x0)).fo
            rs0 = float(rng.uniform(0.1, 0.5)) * benefit_value_at(fo, int(x0))
            portfolio.append(inpatient_policy(int(x0), rs0=rs0))
        s = mc_model(long_curve(100), McModelParams(n_paths=40, vol_n=0.02, vol_r=0.01, corr=0.2, seed=2024))
        capped = simulate_portfolio(portfolio, s, InflationSpread(0.01, 0.005), CapRule(0.03, 1.0))
        assert capped.cap_bound
        assert capped.be.hex() == "0x1.39e2f89e40844p+13"
        assert capped.uncapped.be.hex() == "0x1.a1972b176ef29p+12"
        per_t = {
            1: ("0x1.e51cafdd999a9p+7", "0x1.942b3995121c6p+7"),
            10: ("0x1.7aa7ca686ef6bp+8", "0x1.fe2e195c00bc4p+7"),
            40: ("0x1.5304776b26d55p+5", "0x1.8f683dea25b6ap+4"),
        }
        for t, (want_capped, want_uncapped) in per_t.items():
            assert float(capped.per_t[t]).hex() == want_capped
            assert float(capped.uncapped.per_t[t]).hex() == want_uncapped

    def test_capped_projection(self):
        policy = inpatient_policy(40, rs0=500.0)
        dates = np.arange(policy.run_off + 1)
        res = project(policy, 1.05**dates, 1.04**dates, cap=CapRule(0.01, 1.0))
        assert res.cap_bound
        assert float(res.premiums_net[20]).hex() == "0x1.130b192c0f2aap+11"
        assert float(res.premiums_gross[20]).hex() == "0x1.28704bb220152p+11"
        assert float(res.reserves[20]).hex() == "0x1.047d748aa48d3p+13"
        assert float(res.cashflow[20]).hex() == "-0x1.ace5536e3af9ep+7"
        assert float(np.sum(res.cashflow)).hex() == "-0x1.e806acefe6bbcp+11"
