import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from healthval import (
    CoefficientTriangle,
    FirstOrderBasis,
    PolicyData,
    SecondOrderBasis,
    aggregate,
    aggregate_triangles,
    be_from_blocks,
    building_blocks,
    deterministic_model,
    gross_coefficients,
    project,
    simulate_portfolio,
)
from healthval import decomposition
from healthval.fixtures import inpatient_policy, toy_curve, toy_first_order, toy_policy
from healthval.pricing import InflationSpread

from conftest import random_basis_pair, random_inflation_path, random_policy, random_scenario_set


def per_policy_sum(portfolio) -> CoefficientTriangle:
    """The reference ``aggregate`` must reproduce: one triangle per policy."""
    return aggregate_triangles(gross_coefficients(p) for p in portfolio)


def zero_triangle(horizon: int) -> CoefficientTriangle:
    return CoefficientTriangle(np.zeros((horizon + 1, horizon + 1)), np.zeros(horizon + 1))


def counting_gross(monkeypatch) -> list:
    """Record every triangle ``aggregate`` builds through the module global."""
    calls = []
    original = decomposition.gross_coefficients

    def wrapper(policy):
        calls.append(policy)
        return original(policy)

    monkeypatch.setattr(decomposition, "gross_coefficients", wrapper)
    return calls


def rebuilt(policy: PolicyData, **changes) -> PolicyData:
    """The same contract on new bases (which copy their tables), with optional field changes."""
    fo, so = policy.fo, policy.so
    fields = dict(
        k1=fo.k1, q1=fo.q1, r_calc=fo.r_calc, c1=fo.c1, margin=fo.margin,
        k2=so.k2, q2=so.q2, c2=so.c2, x0=policy.x0, rs0=policy.rs0, id=policy.id,
    )
    fields.update(changes)
    return PolicyData(
        x0=fields["x0"],
        fo=FirstOrderBasis(
            k1=fields["k1"], q1=fields["q1"], r_calc=fields["r_calc"], c1=fields["c1"], margin=fields["margin"]
        ),
        so=SecondOrderBasis(k2=fields["k2"], q2=fields["q2"], c2=fields["c2"]),
        rs0=fields["rs0"],
        id=fields["id"],
    )


def toy_with_second_order_equal_first() -> PolicyData:
    """Toy contract whose projected cash flow includes the benefit leg."""
    fo = toy_first_order()
    so = SecondOrderBasis(k2=fo.k1, q2=fo.q1)
    return PolicyData(x0=0, fo=fo, so=so, id="toy-full")


class TestTriangleContainer:
    def test_shape_follows_fixed_vector(self):
        tri = CoefficientTriangle(np.tril(np.arange(9.0).reshape(3, 3)), np.zeros(3))
        assert tri.horizon == 2
        assert tri.coeffs[2].tolist() == [6.0, 7.0, 8.0]
        for coeffs in (np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((4, 4)), np.zeros(6)):
            with pytest.raises(ValueError, match="coeffs must be"):
                CoefficientTriangle(coeffs, np.zeros(3))


class TestNetCoefficients:
    """The closed-form net-premium triangle, read through
    ``gross_coefficients`` on contracts where the cash flow is the net
    premium: no second-order benefit, no second-order exits before the
    terminal age, no margin.  The expected rows come from the reserve
    recursion worked by hand."""

    def test_toy_rows(self):
        tri = gross_coefficients(toy_policy())
        assert tri.coeffs[0, :1].tolist() == [10.0]
        assert tri.coeffs[1, :2].tolist() == [-5.0, 15.0]
        assert tri.coeffs[2, :3].tolist() == [-5.0, -15.0, 30.0]

    def test_level_benefits_have_diagonal_only(self):
        fo = FirstOrderBasis(k1=np.full(5, 25.0), q1=[0.2, 0.2, 0.2, 0.2, 1.0], r_calc=0.0)
        so = SecondOrderBasis(k2=np.zeros(5), q2=[0.0, 0.0, 0.0, 0.0, 1.0])
        tri = gross_coefficients(PolicyData(x0=0, fo=fo, so=so))
        for t in range(5):
            row = tri.coeffs[t, : t + 1]
            assert row[t] == pytest.approx(25.0, abs=1e-12)
            if t > 0:
                assert np.max(np.abs(row[:t])) <= 1e-12

    def test_seasoned_provision_enters_first_column(self):
        tri = gross_coefficients(toy_policy(rs0=6.0))
        assert tri.coeffs[0, 0] == pytest.approx((30.0 - 6.0) / 3.0)


class TestGrossCoefficients:
    def test_toy_rows_with_benefit_leg(self):
        tri = gross_coefficients(toy_with_second_order_equal_first())
        assert tri.coeffs[0, :1].tolist() == [10.0]
        assert tri.coeffs[1, :2].tolist() == [-5.0, 15.0]
        assert tri.coeffs[2, :3].tolist() == [-5.0, -15.0, 0.0]
        assert np.max(np.abs(tri.fixed)) == 0.0

    def test_cost_loading_cancellation(self):
        margin = 0.2
        fo = FirstOrderBasis(
            k1=[0.0, 30.0], q1=[0.0, 1.0], r_calc=0.0, c1=8.0, margin=margin
        )
        so = SecondOrderBasis(k2=[0.0, 30.0], q2=[0.0, 1.0], c2=8.0 / (1.0 - margin))
        tri = gross_coefficients(PolicyData(x0=0, fo=fo, so=so))
        assert np.max(np.abs(tri.fixed)) <= 1e-12

    def test_rows_reproduce_projected_cashflow(self):
        # Short random contracts, then long run-offs: inpatient entrants,
        # fresh and seasoned, and random contracts of up to 100 years.
        rng = np.random.default_rng(31)
        policies = itertools.chain(
            (random_policy(rng, 5) for _ in range(40)),
            (inpatient_policy(x0, rs0=rs0) for x0 in (21, 45, 69) for rs0 in (0.0, 800.0)),
            (random_policy(rng, 100) for _ in range(10)),
        )
        for policy in policies:
            i_med = random_inflation_path(rng, policy.run_off)
            i_cost = random_inflation_path(rng, policy.run_off)
            tri = gross_coefficients(policy)
            res = project(policy, i_med, i_cost)
            scale = max(1.0, np.max(np.abs(res.cashflow)))
            for t in range(policy.run_off + 1):
                value = float(tri.coeffs[t, : t + 1] @ i_med[: t + 1]) + tri.fixed[t] * i_cost[t]
                assert abs(value - res.cashflow[t]) <= 1e-10 * scale

    def test_cost_perturbation_only_moves_fixed_vector(self):
        rng = np.random.default_rng(37)
        policy = random_policy(rng, 8)
        bumped = PolicyData(
            x0=policy.x0,
            fo=FirstOrderBasis(
                k1=policy.fo.k1,
                q1=policy.fo.q1,
                r_calc=policy.fo.r_calc,
                c1=policy.fo.c1 + 5.0,
                margin=policy.fo.margin,
            ),
            so=SecondOrderBasis(k2=policy.so.k2, q2=policy.so.q2, c2=policy.so.c2 + 2.0),
            rs0=policy.rs0,
            id=policy.id,
        )
        base, moved = gross_coefficients(policy), gross_coefficients(bumped)
        assert np.array_equal(base.coeffs, moved.coeffs)
        assert np.max(np.abs(base.fixed - moved.fixed)) > 0.0

    def test_level_matched_benefits_zero_the_diagonal(self):
        # With level first-order benefits the fresh premium equals the
        # benefit, so a best-estimate benefit of k1/(1-margin) nets the
        # inflation-linked diagonal to zero.
        margin = 0.1
        level = np.full(6, 50.0)
        q = np.array([0.15, 0.15, 0.15, 0.15, 0.15, 1.0])
        fo = FirstOrderBasis(k1=level, q1=q, r_calc=0.02, margin=margin)
        so = SecondOrderBasis(k2=level / (1.0 - margin), q2=q)
        tri = gross_coefficients(PolicyData(x0=0, fo=fo, so=so))
        diagonal = np.diag(tri.coeffs)
        assert np.max(np.abs(diagonal)) <= 1e-12


class TestAggregate:
    def test_singleton_is_identity(self):
        tri = gross_coefficients(toy_policy())
        agg = aggregate([toy_policy()])
        assert np.array_equal(agg.coeffs, tri.coeffs)
        assert np.array_equal(agg.fixed, tri.fixed)

    def test_duplicate_policy_doubles_entries(self):
        one = aggregate([toy_policy()])
        two = aggregate([toy_policy(), toy_policy()])
        assert np.array_equal(two.coeffs, 2.0 * one.coeffs)

    def test_two_variants_sum_entrywise(self):
        variant = toy_with_second_order_equal_first()
        base, other = gross_coefficients(toy_policy()), gross_coefficients(variant)
        agg = aggregate([toy_policy(), variant])
        assert agg.coeffs == pytest.approx(base.coeffs + other.coeffs, abs=1e-15)

    def test_mixed_horizons_pad_with_zeros(self):
        # Short, long, short triangles: the accumulator grows once, then
        # takes the short ones into its leading block.  The reference pads
        # every triangle to the final horizon and sums in input order, so
        # the results match bit for bit.
        rng = np.random.default_rng(41)
        short = [gross_coefficients(random_policy(rng, 3)) for _ in range(242)]
        long = [gross_coefficients(random_policy(rng, 9)) for _ in range(64)]
        triangles = short[:128] + long + short[128:]
        horizon = max(tri.horizon for tri in triangles)
        assert max(tri.horizon for tri in short) < horizon

        expected_coeffs = np.zeros((horizon + 1, horizon + 1))
        expected_fixed = np.zeros(horizon + 1)
        for tri in triangles:
            grow = horizon - tri.horizon
            expected_coeffs += np.pad(tri.coeffs, (0, grow))
            expected_fixed += np.pad(tri.fixed, (0, grow))

        from_list = aggregate_triangles(triangles)
        from_generator = aggregate_triangles(tri for tri in triangles)
        for agg in (from_list, from_generator):
            assert agg.horizon == horizon
            assert np.array_equal(agg.coeffs, expected_coeffs)
            assert np.array_equal(agg.fixed, expected_fixed)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_grouped_sum_matches_per_policy_sum(self, seed):
        # Two or three tariffs of different terminal ages, a few entry ages
        # each, repeated keys built from separately copied tables, about
        # half of them seasoned: one triangle per (tariff, entry age).
        rng = np.random.default_rng(seed)
        tariffs = [random_basis_pair(rng, int(rng.integers(2, 16))) for _ in range(rng.integers(2, 4))]
        portfolio, groups = [], {}
        for j in range(int(rng.integers(2, 40))):
            k = int(rng.integers(len(tariffs)))
            fo, so = tariffs[k]
            x0 = int(rng.integers(0, min(4, fo.terminal_age + 1)))
            rs0 = float(rng.uniform(0.0, 50.0)) if rng.random() < 0.5 else 0.0
            group = groups.setdefault((k, x0), [0, 0.0])
            group[0] += 1
            group[1] += rs0
            portfolio.append(rebuilt(PolicyData(x0=x0, fo=fo, so=so), rs0=rs0, id=f"p{j}"))
        with pytest.MonkeyPatch.context() as patch:
            calls = counting_gross(patch)
            got = aggregate(portfolio)
        # One call per group, in order of first appearance, at the group's mean provision.
        assert [p.rs0 for p in calls] == [rs0_sum / n for n, rs0_sum in groups.values()]
        want = per_policy_sum(portfolio)
        assert got.horizon == want.horizon
        for field in ("coeffs", "fixed"):
            reference = getattr(want, field)
            gap = np.max(np.abs(getattr(got, field) - reference))
            assert gap <= 1e-12 * np.max(np.abs(reference)), field

    def test_distinct_fresh_keys_are_bitwise_the_per_policy_sum(self):
        # 300 distinct (tariff, entry age) keys with rs0 = 0, shuffled:
        # every group is one policy, and its triangle is the per-policy
        # one, added in the same order.
        rng = np.random.default_rng(61)
        tariffs = [random_basis_pair(rng, 99, q_max=0.2) for _ in range(3)]
        keys = [(k, x0) for k in range(3) for x0 in range(100)]
        portfolio = [
            PolicyData(x0=x0, fo=tariffs[k][0], so=tariffs[k][1], id=f"{k}-{x0}")
            for k, x0 in (keys[i] for i in rng.permutation(len(keys)))
        ]
        got, want = aggregate(portfolio), per_policy_sum(portfolio)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert np.array_equal(got.fixed, want.fixed)

    def test_distinct_seasoned_keys_are_bitwise_the_per_policy_sum(self):
        # The same 300 shuffled distinct keys, each with a positive rs0:
        # a one-policy group is built at its own provision.
        rng = np.random.default_rng(71)
        tariffs = [random_basis_pair(rng, 99, q_max=0.2) for _ in range(3)]
        keys = [(k, x0) for k in range(3) for x0 in range(100)]
        portfolio = [
            PolicyData(
                x0=x0, fo=tariffs[k][0], so=tariffs[k][1], rs0=float(rng.uniform(0.1, 50.0)), id=f"{k}-{x0}"
            )
            for k, x0 in (keys[i] for i in rng.permutation(len(keys)))
        ]
        got, want = aggregate(portfolio), per_policy_sum(portfolio)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert np.array_equal(got.fixed, want.fixed)

    @pytest.mark.parametrize("field", ["k1", "q1", "k2", "q2", "c2"])
    def test_one_differing_input_keeps_two_groups(self, field, monkeypatch):
        policy = rebuilt(random_policy(np.random.default_rng(67), 8, seasoned=False), x0=0)
        if field == "c2":
            change = policy.so.c2 + 1.0
        else:
            change = getattr(policy.fo if field in ("k1", "q1") else policy.so, field).copy()
            change[1] *= 0.5  # age 1 lies inside the run-off; q stays in [0, 1)
        other = rebuilt(policy, **{field: change})
        calls = counting_gross(monkeypatch)
        got = aggregate([policy, other])
        assert len(calls) == 2
        want = per_policy_sum([policy, other])
        assert np.array_equal(got.coeffs, want.coeffs)
        assert np.array_equal(got.fixed, want.fixed)

    def test_empty_portfolio_is_zero_triangle(self):
        agg = aggregate_triangles([])
        assert agg.horizon == 0
        assert np.max(np.abs(agg.coeffs)) == 0.0


class TestBeFromBlocks:
    def test_zero_triangle_prices_to_zero(self):
        blocks = building_blocks(deterministic_model(toy_curve()))
        assert be_from_blocks(zero_triangle(2), blocks) == 0.0

    def test_toy_closed_form(self):
        curve = toy_curve()
        blocks = building_blocks(deterministic_model(curve))
        tri = aggregate([toy_policy()])
        pn, pr = curve.pn, curve.pr
        expected = (
            -10.0
            - 15.0 * pr[1]
            + 5.0 * pn[1]
            - 30.0 * pr[2]
            + 15.0 * blocks.med[2, 1]
            + 5.0 * pn[2]
        )
        assert be_from_blocks(tri, blocks) == pytest.approx(expected, abs=1e-12)

    def test_horizon_shortfall_raises(self):
        blocks = building_blocks(deterministic_model(toy_curve()))
        with pytest.raises(ValueError, match="shortfall"):
            be_from_blocks(zero_triangle(10), blocks)

    def test_matches_brute_force_on_random_portfolios(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            portfolio = [random_policy(rng, 8, policy_id=f"p{j}") for j in range(rng.integers(1, 8))]
            horizon = max(p.run_off for p in portfolio)
            s = random_scenario_set(rng, horizon, int(rng.integers(2, 7)))
            spread = InflationSpread(float(rng.uniform(-0.01, 0.04)), float(rng.uniform(-0.01, 0.04)))
            via_blocks = be_from_blocks(aggregate(portfolio), building_blocks(s, spread))
            via_oracle = simulate_portfolio(portfolio, s, spread).be
            assert abs(via_blocks - via_oracle) / (1.0 + abs(via_oracle)) <= 1e-9
