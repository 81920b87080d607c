import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from healthval import CurvePair, ScenarioSet, deterministic_model, implied_forwards

from conftest import random_curve


class TestCurvePair:
    def test_basic_construction(self):
        curve = CurvePair(pn=[1.0, 0.98, 0.95], pr=[1.0, 1.0, 1.0])
        assert curve.horizon == 2

    def test_rejects_non_unit_start(self):
        with pytest.raises(ValueError, match="must equal 1"):
            CurvePair(pn=[0.99, 0.98], pr=[1.0, 1.0])

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValueError, match="positive"):
            CurvePair(pn=[1.0, -0.5], pr=[1.0, 1.0])

    def test_rejects_price_whose_reciprocal_overflows(self):
        for pn, pr in (([1.0, 1e-320], [1.0, 1.0]), ([1.0, 0.98], [1.0, 5e-309])):
            with pytest.raises(ValueError, match="reciprocal"):
                CurvePair(pn=pn, pr=pr)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            CurvePair(pn=[1.0, 0.9, 0.8], pr=[1.0, 0.9])

    def test_negative_rates_allowed(self):
        curve = CurvePair(pn=[1.0, 1.02, 1.05], pr=[1.0, 1.0, 1.0])
        fn, _ = implied_forwards(curve)
        assert np.all(fn < 0.0)

    def test_arrays_read_only(self):
        curve = CurvePair(pn=[1.0, 0.98], pr=[1.0, 1.0])
        with pytest.raises(ValueError):
            curve.pn[0] = 2.0


class TestImpliedForwards:
    def test_flat_unit_curve(self):
        curve = CurvePair(pn=[1.0, 1.0, 1.0], pr=[1.0, 1.0, 1.0])
        fn, fr = implied_forwards(curve)
        assert fn.tolist() == [0.0, 0.0]
        assert fr.tolist() == [0.0, 0.0]

    def test_direct_ratio_arithmetic(self):
        curve = CurvePair(pn=[1.0, 0.98, 0.95], pr=[1.0, 1.0, 1.0])
        fn, fr = implied_forwards(curve)
        assert fn == pytest.approx([1.0 / 0.98 - 1.0, 0.98 / 0.95 - 1.0], abs=1e-15)
        assert fn == pytest.approx([0.020408, 0.031579], abs=5e-7)
        assert fr.tolist() == [0.0, 0.0]

    def test_round_trip_reproduces_prices(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            curve = random_curve(rng, int(rng.integers(1, 60)))
            fn, fr = implied_forwards(curve)
            pn_back = 1.0 / np.cumprod(1.0 + fn)
            pr_back = 1.0 / np.cumprod(1.0 + fr)
            assert np.max(np.abs(pn_back / curve.pn[1:] - 1.0)) <= 1e-14
            assert np.max(np.abs(pr_back / curve.pr[1:] - 1.0)) <= 1e-14

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_property(self, seed):
        curve = random_curve(np.random.default_rng(seed), 30)
        fn, _ = implied_forwards(curve)
        pn_back = 1.0 / np.cumprod(1.0 + fn)
        assert np.max(np.abs(pn_back / curve.pn[1:] - 1.0)) <= 1e-14


def one_path(bn, br) -> ScenarioSet:
    return ScenarioSet(bn=[bn], br=[br], weights=[1.0])


class TestScenarioPath:
    """Per-path invariants of the rows of a :class:`ScenarioSet`."""

    def test_index_is_account_ratio(self):
        s = ScenarioSet(
            bn=[[1.0, 1.02, 1.05], [1.0, 0.9, 1.3]],
            br=[[1.0, 1.0, 1.0], [1.0, 1.05, 1.1]],
            weights=[0.5, 0.5],
        )
        assert s.i[0].tolist() == [1.0, 1.02, 1.05]
        assert np.array_equal(s.i, s.bn / s.br)
        assert not s.i.flags.writeable

    def test_equal_accounts_give_unit_index(self):
        s = one_path([1.0, 1.3, 1.7], [1.0, 1.3, 1.7])
        assert s.i[0].tolist() == [1.0, 1.0, 1.0]

    def test_deterministic_model_index(self):
        curve = CurvePair(pn=[1.0, 0.98, 0.95], pr=[1.0, 1.0, 1.0])
        i = deterministic_model(curve).i[0]
        assert i == pytest.approx([1.0, 1.0 / 0.98, 1.0 / 0.95], rel=1e-15)

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError, match="must start with"):
            one_path([1.1, 1.2], [1.0, 1.0])

    def test_rejects_nonpositive_account(self):
        with pytest.raises(ValueError, match="positive"):
            one_path([1.0, -1.2], [1.0, 1.0])

    def test_inflation_cocycle_on_deterministic_path(self):
        rng = np.random.default_rng(3)
        curve = random_curve(rng, 25)
        fn, fr = implied_forwards(curve)
        i = deterministic_model(curve).i[0]
        ratio = i[1:] / i[:-1]
        assert ratio == pytest.approx((1.0 + fn) / (1.0 + fr), rel=1e-13)


class TestScenarioSet:
    def test_stacked_rows_round_trip(self):
        s = ScenarioSet(bn=[[1.0, 1.1], [1.0, 0.9]], br=[[1.0, 1.0], [1.0, 1.05]], weights=[0.25, 0.75])
        assert s.n_paths == 2
        assert s.horizon == 1
        assert s.bn[1].tolist() == [1.0, 0.9]
        assert s.i[1, 1] == pytest.approx(0.9 / 1.05, rel=1e-15)
        with pytest.raises(ValueError):
            s.bn[0, 0] = 2.0

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ScenarioSet(bn=np.ones((2, 2)), br=np.ones((2, 2)), weights=[0.6, 0.5])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ScenarioSet(bn=np.ones((2, 2)), br=np.ones((2, 2)), weights=[1.2, -0.2])

    def test_paths_must_share_horizon(self):
        with pytest.raises(ValueError, match="identical shapes"):
            ScenarioSet(bn=np.ones((2, 3)), br=np.ones((2, 2)), weights=[0.5, 0.5])
