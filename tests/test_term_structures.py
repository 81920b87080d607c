import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided

from healthval import (
    CoefficientTriangle,
    CurvePair,
    FirstOrderBasis,
    InflationSpread,
    ProjectionResult,
    ScenarioSet,
    SecondOrderBasis,
    deterministic_model,
    implied_forwards,
)

from healthval.term_structures import _BLOCK_BYTES, _row_blocks

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
        i = InflationSpread().index(s, "med")
        assert i[0].tolist() == [1.0, 1.02, 1.05]
        assert np.array_equal(i, s.bn / s.br)

    def test_equal_accounts_give_unit_index(self):
        s = one_path([1.0, 1.3, 1.7], [1.0, 1.3, 1.7])
        assert (s.bn / s.br)[0].tolist() == [1.0, 1.0, 1.0]

    def test_deterministic_model_index(self):
        curve = CurvePair(pn=[1.0, 0.98, 0.95], pr=[1.0, 1.0, 1.0])
        s = deterministic_model(curve)
        i = (s.bn / s.br)[0]
        assert i == pytest.approx([1.0, 1.0 / 0.98, 1.0 / 0.95], rel=1e-15)

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError, match="must start with"):
            one_path([1.1, 1.2], [1.0, 1.0])

    def test_rejects_nonpositive_account(self):
        with pytest.raises(ValueError, match="positive"):
            one_path([1.0, -1.2], [1.0, 1.0])

    def test_rejects_overflowing_index_of_finite_accounts(self):
        # bn / br = 1e600 is not a float: the set is rejected when it is
        # made, with no overflow warning, although i itself is never stored.
        with pytest.raises(ValueError, match="^i contains non-finite entries$"):
            one_path([1.0, 1e300, 1.0], [1.0, 1e-300, 1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("where", ["first row", "first row of a later block", "last row"])
    def test_blocked_check_rejects_overflowing_index_in_any_block(self, where):
        # The quotient is checked one row block at a time; an overflow in
        # the edge rows of the blocks must not slip through, nor warn.
        rows = _BLOCK_BYTES // (8 * 3)
        n_paths = 2 * rows + 5
        assert len(_row_blocks(n_paths, 3)) == 3
        row = {"first row": 0, "first row of a later block": rows, "last row": n_paths - 1}[where]
        bn, br = np.ones((n_paths, 3)), np.ones((n_paths, 3))
        bn[row, 1], br[row, 1] = 1e300, 1e-300
        weights = np.full(n_paths, 1.0 / n_paths)
        with pytest.raises(ValueError, match="^i contains non-finite entries$"):
            ScenarioSet(bn=bn, br=br, weights=weights)
        bn[row, 1] = 1.0
        assert ScenarioSet(bn=bn, br=br, weights=weights).n_paths == n_paths

    def test_inflation_cocycle_on_deterministic_path(self):
        rng = np.random.default_rng(3)
        curve = random_curve(rng, 25)
        fn, fr = implied_forwards(curve)
        s = deterministic_model(curve)
        i = (s.bn / s.br)[0]
        ratio = i[1:] / i[:-1]
        assert ratio == pytest.approx((1.0 + fn) / (1.0 + fr), rel=1e-13)


class TestScenarioSet:
    def test_stacked_rows_round_trip(self):
        s = ScenarioSet(bn=[[1.0, 1.1], [1.0, 0.9]], br=[[1.0, 1.0], [1.0, 1.05]], weights=[0.25, 0.75])
        assert s.n_paths == 2
        assert s.horizon == 1
        assert s.bn[1].tolist() == [1.0, 0.9]
        assert (s.bn / s.br)[1, 1] == pytest.approx(0.9 / 1.05, rel=1e-15)
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


def read_only(arr) -> np.ndarray:
    """A fresh float64 array that owns its data, marked read-only."""
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


class TestAdoptionRule:
    """Read-only float64 arrays that own their data are adopted; all else is copied."""

    def accounts(self):
        return np.array([[1.0, 1.1, 1.3], [1.0, 0.9, 0.8]]), np.array([[1.0, 1.0, 1.1], [1.0, 1.05, 1.0]])

    def test_writable_input_is_copied(self):
        bn, br = self.accounts()
        weights = np.array([0.25, 0.75])
        s = ScenarioSet(bn=bn, br=br, weights=weights)
        before = (s.bn.copy(), s.br.copy(), s.weights.copy())
        bn[1, 1], br[1, 1], weights[0] = 5.0, 7.0, 0.5
        assert bn.flags.writeable
        for got, want in zip((s.bn, s.br, s.weights), before):
            assert np.array_equal(got, want)
            assert not got.flags.writeable

    def test_read_only_view_of_writable_base_is_copied(self):
        bn, br = self.accounts()
        view = bn[:, :]
        view.setflags(write=False)
        s = ScenarioSet(bn=view, br=br, weights=[0.5, 0.5])
        assert s.bn is not view
        bn[0, 2] = 9.0
        assert s.bn[0, 2] == 1.3

    def test_read_only_owned_array_is_adopted(self):
        bn, br = (read_only(a) for a in self.accounts())
        weights = read_only([0.5, 0.5])
        s = ScenarioSet(bn=bn, br=br, weights=weights)
        assert s.bn is bn and s.br is br and s.weights is weights
        curve = CurvePair(pn=read_only([1.0, 0.98]), pr=[1.0, 0.99])
        assert CurvePair(pn=curve.pn, pr=curve.pr).pn is curve.pn

    def test_adopted_arrays_are_still_validated(self):
        bn, br = self.accounts()
        bad_start, non_finite = bn.copy(), bn.copy()
        bad_start[0, 0] = 2.0
        non_finite[1, 2] = np.inf
        with pytest.raises(ValueError, match="start with"):
            ScenarioSet(bn=read_only(bad_start), br=read_only(br), weights=read_only([0.5, 0.5]))
        with pytest.raises(ValueError, match="non-finite"):
            ScenarioSet(bn=read_only(non_finite), br=read_only(br), weights=read_only([0.5, 0.5]))
        with pytest.raises(ValueError, match="2-dimensional"):
            ScenarioSet(bn=read_only(bn[0]), br=read_only(br), weights=read_only([0.5, 0.5]))

    @pytest.mark.parametrize(
        "make, names",
        [
            (lambda a: CurvePair(pn=a, pr=a), ("pn", "pr")),
            (lambda a: FirstOrderBasis(k1=a, q1=np.array([0.1, 0.2, 1.0]), r_calc=0.01), ("k1",)),
            (lambda a: SecondOrderBasis(k2=a, q2=np.array([0.1, 0.2, 1.0])), ("k2",)),
            # A writable (4, 3) view whose every row is ``a``: the test's
            # write to ``a`` reaches the table unless the triangle copies it.
            (lambda a: CoefficientTriangle(as_strided(a, shape=(4, 3), strides=(0, a.itemsize))), ("fixed",)),
            (lambda a: ProjectionResult(a, a, a, a), ("premiums_net", "cashflow")),
        ],
    )
    def test_other_holders_copy_writable_input(self, make, names):
        values = np.array([1.0, 0.5, 0.25])
        held = make(values)
        values[1] = 3.0
        for name in names:
            arr = getattr(held, name)
            assert arr.tolist() == [1.0, 0.5, 0.25]
            assert not arr.flags.writeable
            assert arr is not values
