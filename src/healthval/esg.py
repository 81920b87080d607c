"""Arbitrage-free scenario set constructors and the calibration check.

Every constructor returns a :class:`~healthval.term_structures.ScenarioSet`
whose weighted paths reprice the input curves exactly:

    sum_k w_k / bn_k[t] == pn[t]   and   sum_k w_k / br_k[t] == pr[t]

for every t.  Three models are provided:

- ``deterministic_model``: the single scenario forced by the curves.
- ``two_scenario_model``: two paths that tilt the year-1 accounts by
  c1/c2 on the nominal side and the whole real account by the same kind
  of tilt; the parameter relations make repricing exact by construction.
  Holding the curves fixed and varying the tilts moves the price of a
  delayed inflation payout E[i[1]/bn[2]] anywhere in (0, inf), which is
  the whole point of the two-scenario family.
- ``mc_model``: correlated lognormal account increments around the
  forward drift, then an exact per-time-slice renormalization so the
  empirical means of 1/bn[t] and 1/br[t] match the curves to machine
  precision.  Deterministic for a fixed seed.  The sampler works inside
  its two accounts: the shocks are drawn into the accounts' own
  buffers, then spread into accounts and moment-matched one block of
  rows at a time, with the bits of the formulas applied to whole
  arrays, and the scenario set checks i over the same blocks.  Beside
  the accounts the float temporaries are a few blocks of
  ``term_structures._BLOCK_BYTES`` each, not full-size arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .term_structures import CurvePair, ScenarioSet, _row_blocks, implied_forwards


@dataclass(frozen=True)
class TwoScenarioParams:
    """Tilts and weight of the first scenario in the two-scenario model.

    The complementary tilts cn2, cr2 follow from repricing; positivity of
    those requires p1 < min(1, 1/cn1, 1/cr1), enforced at construction.
    """

    cn1: float = 0.5
    cr1: float = 1.0
    p1: float = 0.5

    def __post_init__(self) -> None:
        if not (self.cn1 > 0.0 and np.isfinite(self.cn1)):
            raise ValueError(f"cn1 must be a positive real, got {self.cn1!r}")
        if not (self.cr1 > 0.0 and np.isfinite(self.cr1)):
            raise ValueError(f"cr1 must be a positive real, got {self.cr1!r}")
        if not (0.0 < self.p1 < 1.0):
            raise ValueError(f"p1 must lie in (0, 1), got {self.p1!r}")
        if self.cn1 * self.p1 >= 1.0:
            raise ValueError(
                f"p1={self.p1} violates p1 < 1/cn1={1.0 / self.cn1}: "
                "second-scenario nominal tilt would not be positive"
            )
        if self.cr1 * self.p1 >= 1.0:
            raise ValueError(
                f"p1={self.p1} violates p1 < 1/cr1={1.0 / self.cr1}: "
                "second-scenario real tilt would not be positive"
            )

    @property
    def cn2(self) -> float:
        return (1.0 - self.cn1 * self.p1) / (1.0 - self.p1)

    @property
    def cr2(self) -> float:
        return (1.0 - self.cr1 * self.p1) / (1.0 - self.p1)


@dataclass(frozen=True)
class McModelParams:
    """Lognormal scenario sampler configuration.

    vol_n / vol_r are per-year log volatilities of the account increments,
    corr the correlation of the nominal and real shocks.  Output is fully
    determined by the seed, which has no default.
    """

    n_paths: int = 1000
    vol_n: float = 0.01
    vol_r: float = 0.005
    corr: float = 0.0
    seed: int = field(kw_only=True)

    def __post_init__(self) -> None:
        if not (isinstance(self.n_paths, (int, np.integer)) and self.n_paths >= 2):
            raise ValueError(f"n_paths must be an integer >= 2, got {self.n_paths!r}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not (self.vol_n >= 0.0 and self.vol_r >= 0.0):
            raise ValueError("volatilities must be nonnegative")
        if not -1.0 <= self.corr <= 1.0:
            raise ValueError(f"corr must lie in [-1, 1], got {self.corr}")


@dataclass(frozen=True)
class CalibrationReport:
    """Worst repricing errors of a scenario set against a curve pair."""

    max_error_nominal: float
    max_error_real: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return max(self.max_error_nominal, self.max_error_real) <= self.tolerance


def deterministic_model(curve: CurvePair) -> ScenarioSet:
    """The unique single-scenario model: bn[t] = 1/pn[t], br[t] = 1/pr[t]."""
    bn = (1.0 / curve.pn)[None, :]
    br = (1.0 / curve.pr)[None, :]
    return ScenarioSet(bn=bn, br=br, weights=np.array([1.0]))


def two_scenario_model(curve: CurvePair, params: TwoScenarioParams) -> ScenarioSet:
    """Two-path model tilting the year-1 nominal account and the real account.

    Path i has bn[1] = 1/(cn_i * pn[1]) and br[t] = 1/(cr_i * pr[t]) for
    t >= 1, while bn[t] = 1/pn[t] from t = 2 on (the paths continue along
    the implied deterministic forward structure beyond the second year).
    Repricing holds exactly for all t by the tilt relations.
    """
    if curve.horizon < 2:
        raise ValueError("two-scenario model needs a curve with horizon T >= 2")
    tilts_n = (params.cn1, params.cn2)
    tilts_r = (params.cr1, params.cr2)
    bn = np.tile(1.0 / curve.pn, (2, 1))
    br = np.tile(1.0 / curve.pr, (2, 1))
    for k in range(2):
        bn[k, 1] = 1.0 / (tilts_n[k] * curve.pn[1])
        br[k, 1:] = 1.0 / (tilts_r[k] * curve.pr[1:])
    weights = np.array([params.p1, 1.0 - params.p1])
    return ScenarioSet(bn=bn, br=br, weights=weights)


def delayed_inflation_factor(params: TwoScenarioParams) -> float:
    """Closed-form ratio E[i[1]/bn[2]] / (deterministic value) for the model.

    Equals cr1/cn1 * p1 + (1 - cr1*p1)/(1 - cn1*p1) * (1 - p1); tends to
    +inf as cn1 -> 0 and to 0 as (cn1, cr1, p1) -> (1/2, 0, 1).
    """
    p1 = params.p1
    return params.cr1 / params.cn1 * p1 + (1.0 - params.cr1 * p1) / (1.0 - params.cn1 * p1) * (
        1.0 - p1
    )


def mc_model(curve: CurvePair, params: McModelParams) -> ScenarioSet:
    """Sampled lognormal scenario set, exactly moment-matched to the curves.

    Raw paths follow the forward drift with correlated Gaussian log
    shocks; each time slice of each account is then rescaled by one
    multiplicative factor so the weighted mean of the inverse account
    hits the curve price exactly.  Zero volatility reproduces the
    deterministic model on every path.
    """
    n, horizon = params.n_paths, curve.horizon
    fn, fr = implied_forwards(curve)
    vols, drifts = (params.vol_n, params.vol_r), (np.log1p(fn), np.log1p(fr))
    bn = np.empty((n, horizon + 1))
    br = np.empty((n, horizon + 1))
    # The shocks z_n, then z_r, are drawn into the leading n * horizon
    # slots of bn's and br's own buffers: the same draws in the same order
    # as into arrays of their own, with no full-size array besides the
    # two accounts.
    z_n = bn.reshape(-1)[: n * horizon].reshape(n, horizon)
    z_r = br.reshape(-1)[: n * horizon].reshape(n, horizon)
    rng = np.random.default_rng(np.uint64(params.seed))
    rng.standard_normal(out=z_n)
    rng.standard_normal(out=z_r)
    blocks = _row_blocks(n, horizon + 1)

    # Every step keeps the order of operations of the formulas in the
    # comments (an addition may swap its operands), so each account is
    # bit for bit the formula's.  Account rows r0..r1 occupy the slots
    # from r0 * (horizon + 1) on, at or past where their shocks start, so
    # writing a block's rows overwrites only its own shocks, copied
    # first, and those of later rows.  Hence the blocks run from the last
    # one back to the first.
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in reversed(blocks):
            shock_n, shock_r = z_n[rows].copy(), z_r[rows].copy()
            # z_r = corr * z_n + sqrt(1 - corr^2) * z_ind, with bn's block
            # holding corr * z_n until the nominal account overwrites it.
            np.multiply(shock_n, params.corr, out=bn[rows, 1:])
            shock_r *= np.sqrt(1.0 - params.corr**2)
            shock_r += bn[rows, 1:]
            for b, z, vol, drift in zip((bn, br), (shock_n, shock_r), vols, drifts):
                # b[:, 1:] = exp(cumsum(log1p(f) + vol * z, axis=1))
                z *= vol
                z += drift
                b[rows, 0] = 1.0
                np.cumsum(z, axis=1, out=b[rows, 1:])
                np.exp(b[rows, 1:], out=b[rows, 1:])
        del shock_n, shock_r, z
        # Exact per-slice moment matching: slice t is scaled so that
        # mean(1/b[:, t]) == p[t].  Slice 0 is pinned at 1 already.  The
        # column sums of 1/b run over the rows in order, as np.mean's do
        # on two or more columns: each block's reduction starts from the
        # running total, held in row 0 of the block's buffer.
        inverse = np.empty((blocks[0].stop + 1, horizon + 1))
        for b, prices in ((bn, curve.pn), (br, curve.pr)):
            total = np.zeros(horizon + 1)
            for rows in blocks:
                k = rows.stop - rows.start
                inverse[0] = total
                np.divide(1.0, b[rows], out=inverse[1 : k + 1])
                np.add.reduce(inverse[: k + 1], axis=0, out=total)
            scale = total / n / prices
            scale[0] = 1.0
            b *= scale
        del inverse
    if not (np.all(np.isfinite(bn)) and np.all(np.isfinite(br))):
        raise ValueError("non-finite scenario draws; volatilities too large for the horizon")

    weights = np.full(n, 1.0 / n)
    # Read-only arrays that own their data: the set adopts them uncopied.
    for arr in (bn, br, weights):
        arr.setflags(write=False)
    return ScenarioSet(bn=bn, br=br, weights=weights, sampled=True)


def calibration_check(
    s: ScenarioSet, curve: CurvePair, tolerance: float = 1e-10
) -> CalibrationReport:
    """Worst absolute repricing error of the set against both curves.

    The default tolerance suits the exact constructors; a sampler without
    moment matching would need a statistical bound instead.  The prices
    sum the paths one block of rows at a time, through one block's
    buffer of reciprocals.
    """
    if s.horizon != curve.horizon:
        raise ValueError(
            f"horizon mismatch: scenario set has T={s.horizon}, curve has T={curve.horizon}"
        )
    blocks = _row_blocks(*s.bn.shape)
    inverse = np.empty((blocks[0].stop, s.horizon + 1))
    priced_n, priced_r = np.zeros(s.horizon + 1), np.zeros(s.horizon + 1)
    for rows in blocks:
        k = rows.stop - rows.start
        priced_n += s.weights[rows] @ np.divide(1.0, s.bn[rows], out=inverse[:k])
        priced_r += s.weights[rows] @ np.divide(1.0, s.br[rows], out=inverse[:k])
    return CalibrationReport(
        max_error_nominal=float(np.max(np.abs(priced_n - curve.pn))),
        max_error_real=float(np.max(np.abs(priced_r - curve.pr))),
        tolerance=tolerance,
    )
