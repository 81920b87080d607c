"""Pricing of the basis instruments and the dual-route valuation report.

The basis instrument (t, s) pays the medical index level observed at s
at the later date t; its price under a scenario set is the exact
probability-weighted sum

    med[t, s] = sum_k w_k * i_med_k[s] / bn_k[t],      0 <= s <= t.

The boundary cases are ordinary bonds: i_med[0] = 1 on every path, so
med[t, 0] = E[1/bn[t]] is the nominal ZCB price, and, with zero spread,
med[t, t] is the real ZCB price.  The medical and cost indices come from
:meth:`InflationSpread.index
<healthval.term_structures.InflationSpread.index>`, one index and one
block of rows at a time, into a buffer of one block that the pricer
owns: the pricers walk the paths in row blocks, so beside the set they
hold no (paths x dates) array.

Prices are always exact weighted sums over the finite set, never
subsampled; Monte-Carlo standard errors attach only to equal-weight
sampled sets.

``InflationSpread`` (from ``term_structures``) and ``be_from_blocks``
(from ``decomposition``) are re-exported here for callers that reach
them through this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .decomposition import CoefficientTriangle, aggregate, be_by_date, be_from_blocks  # noqa: F401
from .policy_engine import CapRule, PolicyData, simulate_portfolio
from .term_structures import InflationSpread, ScenarioSet, _readonly, _row_blocks


@dataclass(frozen=True, eq=False)
class BuildingBlockMatrix:
    """Prices of the delayed-index payouts plus the cost diagonal.

    ``med[t, s]`` = E[i_med[s]/bn[t]] for s <= t, a (T+1, T+1) array
    with zeros above the diagonal, the layout of the coefficient
    triangles it prices; its column 0 is the nominal ZCB, ``med[t, 0]``
    = E[1/bn[t]], since i_med[0] = 1.  ``cost_diag[t]`` =
    E[i_cost[t]/bn[t]].  The horizon is ``len(med) - 1``.
    ``se_med``, shaped like ``med`` and nonnegative, holds the i.i.d.
    per-entry standard errors of ``med``, present only for sampled sets
    (see ``ScenarioSet``): for each (t, s), the sample standard
    error of the per-path values i_med[s]/bn[t], as if the paths were
    independent, and exactly 0 where bn[t] and i_med[s] are each the
    same on every path, as at (0, 0).  ``mc_model`` matches every time
    slice's moments exactly, which this ignores, so it overstates an
    entry's spread across seeds (as ``ValuationReport.standard_error``
    does the BE's).
    No other block SE is carried, because nothing reads one.  The
    arrays are read-only and finite, under the adoption rule of
    ``term_structures._readonly``: a writable input is copied.
    """

    med: np.ndarray
    cost_diag: np.ndarray
    se_med: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        arrays = {"med": 2, "cost_diag": 1}
        if self.se_med is not None:
            arrays["se_med"] = 2
        for name, ndim in arrays.items():
            object.__setattr__(self, name, _readonly(getattr(self, name), name, ndim))
        n = len(self.med)
        if self.med.shape != (n, n):
            raise ValueError(f"med must be square, got {self.med.shape}")
        if len(self.cost_diag) != n:
            raise ValueError("cost_diag must have one entry per date")
        if not (np.all(self.med[np.tril_indices(n)] > 0.0) and np.all(self.cost_diag > 0.0)):
            raise ValueError("building-block prices must be positive")
        if self.se_med is not None and (self.se_med.shape != (n, n) or np.any(self.se_med < 0.0)):
            raise ValueError("se_med must be nonnegative and shaped like med")

    @property
    def horizon(self) -> int:
        return len(self.med) - 1


def building_blocks(s: ScenarioSet, spread: InflationSpread = InflationSpread()) -> BuildingBlockMatrix:
    """Exact block prices under a finite scenario set.

    The paths are walked in row blocks (``term_structures._row_blocks``).
    Each block builds its weighted discount and its cost and medical
    indices into buffers of one block, and adds its part of every
    weighted reduction into (T+1)-sized sums: ``med`` as one matrix
    product, and for sampled (equal-weight) sets the second moment
    behind the i.i.d. standard errors as another.  So beside the set
    the call holds a few blocks, whatever the number of paths.  A set of
    one block gets the bits of the formulas applied to whole arrays, but
    for the standard errors that are exactly 0 (see
    :class:`BuildingBlockMatrix`).
    """
    dates = s.horizon + 1
    blocks = _row_blocks(*s.bn.shape)
    # Block buffers: 1/bn, the weighted discount w/bn, and the index
    # buffer, which holds the cost index, then the medical index, then
    # its square.
    inv_bn, disc, index = (np.empty((blocks[0].stop, dates)) for _ in range(3))
    cost_diag = np.zeros(dates)
    med = np.zeros((dates, dates))
    if s.sampled:
        second_med = np.zeros((dates, dates))
        # Whether each date's bn, and each date's medical index, is the
        # same on every path.
        same_bn, same_med = np.ones(dates, dtype=bool), np.ones(dates, dtype=bool)
        first_med = spread.index(s, "med", np.s_[:1, :])[0]
    for rows in blocks:
        k = rows.stop - rows.start
        inv = np.divide(1.0, s.bn[rows], out=inv_bn[:k])
        weighted = np.multiply(inv, s.weights[rows, None], out=disc[:k])
        at = (rows, slice(None))
        cost_diag += np.einsum("kt,kt->t", weighted, spread.index(s, "cost", at, out=index[:k]))
        i_med = spread.index(s, "med", at, out=index[:k])
        med += weighted.T @ i_med
        if s.sampled:
            # second_med = ((1 / bn)**2 / n).T @ i_med**2, squared in place.
            same_bn &= (s.bn[rows] == s.bn[0]).all(axis=0)
            same_med &= (i_med == first_med).all(axis=0)
            np.square(inv, out=inv)
            inv /= s.n_paths
            np.square(i_med, out=i_med)
            second_med += inv.T @ i_med
    med = np.tril(med)

    se_med = None
    if s.sampled:
        n = s.n_paths
        se_med = np.sqrt(np.maximum(np.tril(second_med) - med**2, 0.0) / (n - 1))
        # An entry whose discount and index are each the same on every
        # path, as (0, 0) always is, has no spread: the two moments'
        # rounding would leave a few 1e-9 there.
        se_med[np.outer(same_bn, same_med)] = 0.0

    return BuildingBlockMatrix(med=med, cost_diag=cost_diag, se_med=se_med)


@dataclass(frozen=True, eq=False)
class ValuationReport:
    """Both valuation routes side by side, with the agreement verdict.

    ``per_t`` holds the decomposition route's Best-Estimate contribution
    of each date (they sum to ``be_decomposition``), which is where the
    interest-rate-sensitive periods show up.  ``standard_error`` is the
    i.i.d. sample standard error of the per-path decomposition values
    (see :func:`_be_standard_error`); None for exact sets.  It is not the
    seed-to-seed error of the BE: moment-matched sets spread far less.
    """

    n_policies: int
    horizon: int
    be_decomposition: float
    be_oracle: float
    difference: float
    relative_difference: float
    tolerance: float
    routes_agree: bool
    per_t: np.ndarray
    standard_error: Optional[float]
    triangle: CoefficientTriangle
    blocks: BuildingBlockMatrix
    be_oracle_capped: Optional[float] = None
    cap_bound: Optional[bool] = None


def _be_standard_error(
    tri: CoefficientTriangle, s: ScenarioSet, spread: InflationSpread
) -> Optional[float]:
    """Sample SE of the per-path decomposition values, as if paths were i.i.d.

    ``mc_model`` matches the moments of every time slice exactly, which
    this ignores, so the figure overstates the BE's spread across seeds
    (by about 30x on the shipped inpatient MC config).  The per-path
    values are built one block of rows at a time, each row with the bits
    of the formula applied to whole arrays.
    """
    if not s.sampled:
        return None
    n = tri.horizon + 1
    blocks = _row_blocks(s.n_paths, n)
    # z = -sum(dated / bn, axis=1) for dated = i_med @ coeffs.T + i_cost * fixed,
    # each step in place once the product has its buffer; one index buffer
    # holds the medical index, then the cost index.
    index, dated = (np.empty((blocks[0].stop, n)) for _ in range(2))
    z = np.empty(s.n_paths)
    for rows in blocks:
        k = rows.stop - rows.start
        at = (rows, slice(0, n))
        values = np.matmul(spread.index(s, "med", at, out=index[:k]), tri.coeffs.T, out=dated[:k])
        cost = spread.index(s, "cost", at, out=index[:k])
        cost *= tri.fixed
        values += cost
        values /= s.bn[at]
        np.sum(values, axis=1, out=z[rows])
    np.negative(z, out=z)
    return float(np.std(z, ddof=1) / np.sqrt(s.n_paths))


def be_report(
    portfolio: Sequence[PolicyData],
    s: ScenarioSet,
    spread: InflationSpread = InflationSpread(),
    tolerance: float = 1e-9,
    cap: Optional[CapRule] = None,
) -> ValuationReport:
    """Value a portfolio by both routes and compare them.

    Route disagreement beyond the tolerance is reported as a failure
    (``routes_agree`` False), never averaged away.  With a cap rule, one
    brute-force pass gives both the uncapped oracle and the capped value,
    attached as a supplement; the decomposition is always uncapped (caps
    break linearity) and bounds the capped value from below.
    """
    tri = aggregate(portfolio)
    blocks = building_blocks(s, spread)
    be_dec, per_t = be_by_date(tri, blocks)
    sim = simulate_portfolio(portfolio, s, spread, cap=cap)
    oracle = sim.uncapped or sim
    difference = be_dec - oracle.be
    relative = abs(difference) / (1.0 + abs(oracle.be))

    return ValuationReport(
        n_policies=len(portfolio),
        horizon=tri.horizon,
        be_decomposition=be_dec,
        be_oracle=oracle.be,
        difference=difference,
        relative_difference=relative,
        tolerance=tolerance,
        routes_agree=relative <= tolerance,
        per_t=per_t,
        standard_error=_be_standard_error(tri, s, spread),
        triangle=tri,
        blocks=blocks,
        be_oracle_capped=None if cap is None else sim.be,
        cap_bound=None if cap is None else sim.cap_bound,
    )
