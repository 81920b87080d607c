"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints one ``[criterion N] ... PASS/FAIL`` line; run with
``pytest tests/test_acceptance.py -v -s`` to see them all.
"""

import time
from contextlib import contextmanager

import numpy as np

from healthval import (
    CapRule,
    FirstOrderBasis,
    InflationSpread,
    McModelParams,
    PolicyData,
    SecondOrderBasis,
    TwoScenarioParams,
    aggregate,
    aggregate_triangles,
    be_from_blocks,
    building_blocks,
    calibration_check,
    deterministic_model,
    first_order_pv,
    gross_coefficients,
    mc_model,
    project,
    project_real_rate,
    simulate_portfolio,
    two_scenario_model,
)
from healthval.cli import _sweep, main as cli_main

from conftest import (
    FIXTURES,
    flat_curve,
    inpatient_first_order,
    inpatient_policy,
    inpatient_second_order,
    long_curve,
    random_curve,
    random_inflation_path,
    random_policy,
    random_scenario_set,
    toy_curve,
    toy_policy,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    print(f"[criterion {number}] {label}: PASS")


def test_criterion_1_toy_cash_flow_golden():
    with criterion(1, "toy-model premium closed form, exact to 1e-12, < 1 ms"):
        policy = toy_policy()
        for i1 in (1.0, 1.02, 0.9):
            for i2 in (1.0, 1.0404, 0.81):
                path = np.array([1.0, i1, i2])
                res = project(policy, path, path)
                expected = np.array([10.0, 15.0 * i1 - 5.0, 30.0 * i2 - 15.0 * i1 - 5.0])
                assert np.max(np.abs(res.premiums_net - expected)) <= 1e-12

        path = np.array([1.0, 1.02, 1.0404])
        best = min(
            _timed(lambda: project(policy, path, path)) for _ in range(20)
        )
        assert best < 1e-3, f"single projection took {best * 1e3:.3f} ms"


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_2_worked_example_closed_form():
    with criterion(2, "worked-example value matches both routes to 1e-12 on any curves"):
        rng = np.random.default_rng(2024)
        curves = [toy_curve()] + [random_curve(rng, 3) for _ in range(5)]
        for curve in curves:
            models = [
                deterministic_model(curve),
                two_scenario_model(curve, TwoScenarioParams(cn1=0.5, cr1=1.2, p1=0.4)),
                mc_model(curve, McModelParams(n_paths=300, vol_n=0.02, vol_r=0.01, corr=0.3, seed=7)),
            ]
            for s in models:
                blocks = building_blocks(s)
                pn, pr = curve.pn, curve.pr
                expected = (
                    -10.0
                    - 15.0 * pr[1]
                    + 5.0 * pn[1]
                    - 30.0 * pr[2]
                    + 15.0 * blocks.med[2, 1]
                    + 5.0 * pn[2]
                )
                be_oracle = simulate_portfolio([toy_policy()], s).be
                be_blocks = be_from_blocks(aggregate([toy_policy()]), blocks)
                assert abs(be_oracle - expected) <= 1e-12
                assert abs(be_blocks - expected) <= 1e-12


def test_criterion_3_nonuniqueness_sweep():
    with criterion(3, "two-scenario sweep moves the block price past 10x and 0.1x, < 1 s"):
        curve = toy_curve()
        start = time.perf_counter()
        sweep = _sweep(curve)
        elapsed = time.perf_counter() - start
        assert sweep["exhibits_above_10x"]
        assert sweep["exhibits_below_0p1x"]
        assert sweep["all_calibrated"]
        assert all(e["calibration_error"] <= 1e-12 for e in sweep["entries"])
        assert elapsed < 1.0, f"sweep took {elapsed:.2f} s"


def test_criterion_4_decomposition_soundness():
    with criterion(4, "200 random portfolios: decomposition equals brute force to 1e-9, < 10 s"):
        rng = np.random.default_rng(4)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(200):
            n_policies = int(rng.integers(1, 21))
            portfolio = [random_policy(rng, 10, policy_id=f"p{j}") for j in range(n_policies)]
            horizon = max(p.run_off for p in portfolio)
            s = random_scenario_set(rng, horizon, int(rng.integers(2, 9)))
            spread = InflationSpread(
                med_spread=float(rng.uniform(-0.02, 0.05)),
                cost_spread=float(rng.uniform(-0.02, 0.05)),
            )
            via_oracle = simulate_portfolio(portfolio, s, spread).be
            via_blocks = be_from_blocks(aggregate(portfolio), building_blocks(s, spread))
            worst = max(worst, abs(via_blocks - via_oracle) / (1.0 + abs(via_oracle)))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"worst relative difference {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_5_calibration_every_constructor():
    with criterion(5, "all constructors calibrate to 1e-12; 10k-path MC under 5 s"):
        rng = np.random.default_rng(5)
        for _ in range(10):
            curve = random_curve(rng, int(rng.integers(2, 30)))
            assert calibration_check(deterministic_model(curve), curve, 1e-12).passed
            params = TwoScenarioParams(
                cn1=float(rng.uniform(0.02, 1.6)),
                cr1=float(rng.uniform(0.02, 1.6)),
                p1=float(rng.uniform(0.05, 0.6)),
            )
            assert calibration_check(two_scenario_model(curve, params), curve, 1e-12).passed
            small = mc_model(
                curve, McModelParams(n_paths=200, vol_n=0.03, vol_r=0.02, corr=-0.3, seed=int(rng.integers(1 << 31)))
            )
            assert calibration_check(small, curve, 1e-12).passed

        big_curve = flat_curve(60, 0.02, 0.005)
        start = time.perf_counter()
        big = mc_model(big_curve, McModelParams(n_paths=10_000, vol_n=0.015, vol_r=0.008, corr=0.25, seed=60))
        report = calibration_check(big, big_curve, 1e-12)
        elapsed = time.perf_counter() - start
        assert report.passed, (report.max_error_nominal, report.max_error_real)
        assert elapsed < 5.0, f"10k x 60 set took {elapsed:.2f} s"


def test_criterion_6_real_rate_identity():
    with criterion(6, "real-rate convention tracks the index to 1e-12 on 100 random policies"):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            policy = random_policy(rng, 20)
            index = random_inflation_path(rng, policy.run_off)
            res = project_real_rate(policy, index)
            p0 = res.premiums_net[0]
            drift = np.max(np.abs(res.premiums_net - index * p0)) / max(abs(p0), 1e-12)
            worst = max(worst, drift)
        assert worst <= 1e-12, f"worst drift {worst:.3e}"


def test_criterion_7_premium_path_figure_property(tmp_path):
    with criterion(7, "premium-path PVs equal to 1e-9; initial premiums within 10%"):
        # Through the subcommand, on the shipped fixture (entry age 25).
        exit_code = cli_main(
            [
                "premium-path",
                "--config",
                str(FIXTURES / "config_inpatient.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert exit_code == 0

        # Directly for both shipped entry ages.
        for x0 in (25, 35):
            so = inpatient_second_order()
            nominal = PolicyData(x0=x0, fo=inpatient_first_order(r_calc=0.01), so=so, id="n")
            real = PolicyData(x0=x0, fo=inpatient_first_order(r_calc=-0.01), so=so, id="r")
            horizon = nominal.run_off
            index = (101.0 / 99.0) ** np.arange(horizon + 1)
            index[0] = 1.0
            res_nominal = project(nominal, index, index)
            res_real = project_real_rate(real, index)
            pv_nominal = first_order_pv(nominal.fo, x0, res_nominal.premiums_net, 0.01)
            pv_real = first_order_pv(nominal.fo, x0, res_real.premiums_net, 0.01)
            assert abs(pv_nominal - pv_real) / abs(pv_nominal) <= 1e-9
            gap = abs(res_real.premiums_net[0] / res_nominal.premiums_net[0] - 1.0)
            assert gap < 0.10, f"x0={x0}: initial premium gap {gap:.2%}"


def _cap_test_policy(rng: np.random.Generator) -> PolicyData:
    omega = int(rng.integers(12, 24))
    ages = np.arange(omega + 1)
    k1 = rng.uniform(20.0, 60.0) * rng.uniform(1.02, 1.05) ** ages
    q1 = rng.uniform(0.03, 0.15, omega + 1)
    q1[-1] = 1.0
    fo = FirstOrderBasis(k1=k1, q1=q1, r_calc=float(rng.uniform(0.0, 0.02)))
    so = SecondOrderBasis(k2=k1 * float(rng.uniform(0.9, 1.0)), q2=q1)
    return PolicyData(x0=0, fo=fo, so=so, id="cap-case")


def test_criterion_8_cap_monotonicity():
    with criterion(8, "capped BE never below uncapped; strictly above when the cap binds"):
        rng = np.random.default_rng(8)
        curve = flat_curve(25, 0.02, -0.015)
        bound_cases = 0
        for case in range(50):
            s = mc_model(
                curve,
                McModelParams(n_paths=40, vol_n=0.02, vol_r=0.01, corr=0.0, seed=1000 + case),
            )
            policy = _cap_test_policy(rng)
            cap = CapRule(abs_increase=0.005, inflation_multiple=0.8)
            plain = simulate_portfolio([policy], s)
            capped = simulate_portfolio([policy], s, cap=cap)
            assert capped.be >= plain.be - 1e-12 * abs(plain.be)
            if capped.cap_bound:
                bound_cases += 1
                assert capped.be > plain.be
        assert bound_cases >= 25, f"cap bound in only {bound_cases}/50 cases"


def _scaling_ladder():
    """(seconds, BE) by N for each route, on N clones of one inpatient policy.

    The decomposition route is timed from cached coefficients (aggregate,
    price the blocks, assemble), best of two; the cache holds N handles
    to one triangle, but aggregation still performs the N-fold summation.
    """
    policy = inpatient_policy(61, policy_id="benchmark")
    params = McModelParams(n_paths=10_000, vol_n=0.015, vol_r=0.008, corr=0.25, seed=2024)
    scenarios = mc_model(long_curve(policy.run_off), params)
    spread = InflationSpread(med_spread=0.01, cost_spread=0.0)
    donor_triangle = gross_coefficients(policy)
    decomposition, oracle = {}, {}
    for n in (100, 1_000, 10_000):
        cached = [donor_triangle] * n
        seconds, be = float("inf"), 0.0
        for _ in range(2):
            start = time.perf_counter()
            tri = aggregate_triangles(cached)
            blocks = building_blocks(scenarios, spread)
            be = be_from_blocks(tri, blocks)
            seconds = min(seconds, time.perf_counter() - start)
        decomposition[n] = (seconds, be)
    for n in (100, 400):
        portfolio = [policy] * n
        start = time.perf_counter()
        be = simulate_portfolio(portfolio, scenarios, spread).be
        oracle[n] = (time.perf_counter() - start, be)
    return decomposition, oracle


def test_criterion_9_decomposition_scales_flat():
    with criterion(9, "cached-coefficient valuation nearly flat in N; brute force linear"):
        decomposition, oracle = _scaling_ladder()
        for route, rows in (("decomposition", decomposition), ("brute force", oracle)):
            print(f"[criterion 9] {route}: " + ", ".join(f"N={n} {t:.4f} s" for n, (t, _) in rows.items()))
        ratio = decomposition[10_000][0] / decomposition[100][0]
        assert ratio < 3.0, f"decomposition wall time grew {ratio:.2f}x from N=100 to N=10000"
        growth, scale = oracle[400][0] / oracle[100][0], 400 / 100
        assert 0.5 * scale <= growth <= 2.0 * scale, (
            f"brute force grew {growth:.2f}x for {scale:.0f}x more policies"
        )
        # Same value from both routes at the shared portfolio size.
        dec, orc = decomposition[100][1], oracle[100][1]
        assert abs(dec - orc) / (1.0 + abs(orc)) <= 1e-9
