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
  precision.  Deterministic for a fixed seed.  The shocks are one
  ordered stream of row blocks, z_n of every block and then z_ind of
  every block, drawn into two buffers of one block each: the bits of
  the two whole draws.  The caller builds each drawn block of accounts,
  and adds its column sums of the inverse accounts, while the next
  block is drawn; from two CPUs on (``term_structures._cpus``) a helper
  thread draws, taking turns with the caller through two queues (see
  ``_drawn``), otherwise the caller does.  The bits of the formulas
  applied to whole arrays are kept, and beside the two accounts the
  float temporaries are the two blocks of ``term_structures._BLOCK_BYTES``.
  The accounts are checked once, by the ``ScenarioSet`` that adopts
  them; a set that fails its checks is reported as volatilities too
  large for the horizon.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .term_structures import CurvePair, ScenarioSet, _cpus, _row_blocks, implied_forwards


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


def _drawn(rng: np.random.Generator, views: list, threaded: bool) -> Iterator[np.ndarray]:
    """Yield each of ``views`` in turn, once ``rng``'s standard normals fill it.

    The draws follow one another in ``rng``'s stream, so the views hold
    the bits of one draw laid end to end over them.  View j may share
    its buffer with view j - 2, never with view j - 1: the caller is done
    with a view when it asks for the next one.

    With ``threaded`` a helper thread draws, and the two sides take
    turns through two queues.  The helper draws a view for each ticket
    it takes: two at the start, then one each time the caller is done
    with a view, so view j is drawn only once the caller is done with
    view j - 2 and the helper is one view ahead at most.  For each view
    it puts ``None`` on the ``drawn`` queue, or the exception its draw
    raised, which the caller raises at its request for that view.  A
    ``False`` ticket stops the helper: this generator puts one when it
    ends or is closed (by a caller that stops early, say), then joins
    the helper, which only draws.
    """
    if not threaded:
        for view in views:
            rng.standard_normal(out=view)
            yield view
        return
    tickets, drawn = queue.SimpleQueue(), queue.SimpleQueue()

    def draw() -> None:
        try:
            for view in views:
                if not tickets.get():
                    return
                rng.standard_normal(out=view)
                drawn.put(None)
        except BaseException as exc:  # re-raised by the caller
            drawn.put(exc)

    tickets.put(True)
    tickets.put(True)
    helper = threading.Thread(target=draw, name="healthval-mc-draws")
    helper.start()
    try:
        for view in views:
            failure = drawn.get()
            if failure is not None:
                raise failure
            yield view
            tickets.put(True)
    finally:
        tickets.put(False)
        helper.join()


def mc_model(curve: CurvePair, params: McModelParams) -> ScenarioSet:
    """Sampled lognormal scenario set, exactly moment-matched to the curves.

    Raw paths follow the forward drift with correlated Gaussian log
    shocks; each time slice of each account is then rescaled by one
    multiplicative factor so the weighted mean of the inverse account
    hits the curve price exactly.  Zero volatility reproduces the
    deterministic model on every path.  Accounts that the set rejects,
    non-finite ones above all, raise ``ValueError`` ("volatilities too
    large for the horizon"), chained from the set's own error.  No
    thread is left when this returns or raises (see `_accounts`).
    """
    bn, br = _accounts(curve, params)
    weights = np.full(bn.shape[0], 1.0 / bn.shape[0])
    # Read-only arrays that own their data: the set adopts them uncopied,
    # and its checks are the only pass over them.
    for arr in (bn, br, weights):
        arr.setflags(write=False)
    try:
        return ScenarioSet(bn=bn, br=br, weights=weights, sampled=True)
    except ValueError as exc:
        raise ValueError("non-finite scenario draws; volatilities too large for the horizon") from exc


def _accounts(curve: CurvePair, params: McModelParams) -> tuple[np.ndarray, np.ndarray]:
    """``mc_model``'s accounts (bn, br), moment-matched but not checked.

    They may hold inf or nan: the ``ScenarioSet`` that ``mc_model``
    builds from them is their one finiteness check.

    The shocks z_n of every row block (``_row_blocks``), then z_ind of
    every row block, are drawn in that order into two buffers of one
    block, taken in turn (`_drawn`): the bits of the two whole draws.
    While this builds one block of accounts and adds its column sums of
    1/b, the next block is drawn, on a helper thread when the process
    may run on two or more CPUs, one block ahead at most.  The helper
    is joined before this returns or raises.
    """
    n, horizon = params.n_paths, curve.horizon
    fn, fr = implied_forwards(curve)
    bn = np.empty((n, horizon + 1))
    br = np.empty((n, horizon + 1))
    blocks = _row_blocks(n, horizon + 1)
    # Block j of the stream takes buffer j % 2: first its shocks, then,
    # once they are spent, its reciprocals 1/b below a row for their
    # running column sums.
    buffers = np.empty((2, (blocks[0].stop + 1) * (horizon + 1)))
    stream = [(buffers[j % 2], rows.stop - rows.start) for j, rows in enumerate(blocks * 2)]
    # On one CPU the helper only adds switches: pinned to one CPU of a
    # 2-vCPU x86-64 machine, a 10 000 x 100 set took about 50.7 ms
    # threaded against 49.7 ms inline (medians of 100 alternating calls,
    # threaded slower in 80).
    drawn = _drawn(
        np.random.default_rng(np.uint64(params.seed)),
        [buf[: k * horizon].reshape(k, horizon) for buf, k in stream],
        _cpus() >= 2,
    )
    shocks = zip([buf[: (k + 1) * (horizon + 1)].reshape(k + 1, horizon + 1) for buf, k in stream], drawn)
    spread_r = np.sqrt(1.0 - params.corr**2)
    totals = []

    # Every step keeps the order of operations of the formulas in the
    # comments (an addition may swap its operands), so each account is
    # bit for bit the formula's.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for b, vol, drift in ((bn, params.vol_n, np.log1p(fn)), (br, params.vol_r, np.log1p(fr))):
                total = np.zeros(horizon + 1)
                for rows in blocks:
                    inverse, z = next(shocks)
                    if b is bn:
                        # br's block holds corr * z_n until the real
                        # account overwrites it.
                        np.multiply(z, params.corr, out=br[rows, 1:])
                    else:
                        # z_r = corr * z_n + sqrt(1 - corr^2) * z_ind
                        z *= spread_r
                        z += br[rows, 1:]
                    # b[:, 1:] = exp(cumsum(log1p(f) + vol * z, axis=1))
                    z *= vol
                    z += drift
                    b[rows, 0] = 1.0
                    np.cumsum(z, axis=1, out=b[rows, 1:])
                    np.exp(b[rows, 1:], out=b[rows, 1:])
                    # The column sums of 1/b run over the rows in order,
                    # as np.mean's do on two or more columns: the block's
                    # reduction starts from the running total, held in
                    # the row above its reciprocals.
                    inverse[0] = total
                    np.divide(1.0, b[rows], out=inverse[1:])
                    np.add.reduce(inverse, axis=0, out=total)
                totals.append(total)
            # Exact per-slice moment matching: slice t is scaled so that
            # mean(1/b[:, t]) == p[t].  Slice 0 is pinned at 1 already.
            for b, prices, total in zip((bn, br), (curve.pn, curve.pr), totals):
                scale = total / n / prices
                scale[0] = 1.0
                b *= scale
    finally:
        drawn.close()
    return bn, br


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
