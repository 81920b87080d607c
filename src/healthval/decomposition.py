"""Static coefficient decomposition of health-insurance cash flows.

The projected cash flow of a policy at date t is linear in the index
levels seen so far:

    CF[t] = sum_{s<=t} coeffs[t, s] * i_med[s]  +  fixed[t] * i_cost[t]

with coefficients depending only on policy data.  Valuation therefore
splits into a coefficient computation (this module, in closed form: an
index move shifts every later net premium by one level amount) and
pricing of the basis instruments E[i_med[s] / bn[t]] (module
``pricing``).  The sum of the per-policy triangles values a whole
portfolio, which makes the Monte-Carlo cost independent of the number
of policies.  A seasoned provision rs0 enters a triangle only in column
0, and only affinely, so the n policies of one (tariff, entry age) key
sum to n * T(mean rs0): the coefficient cost grows with the number of
distinct keys, not with the number of policies.

A triangle is stored as one (T+2, T+1) table: row 0 is ``fixed`` and
rows 1..T+1 are ``coeffs``, laid out like the block prices ``med`` it
multiplies, with zeros above the diagonal.  With ``fixed`` on top,
padding a table with zeros after its last row and column keeps that
layout, so a horizon-h triangle is the leading (h+2, h+1) block of any
longer one and a sum of triangles is one add per triangle.  Below the
diagonal each key's triangle is rank one, the outer product of a row
scale and a column of later net amounts, so :func:`aggregate` builds a
portfolio's triangle from the keys' vectors alone, with one matrix
product; it is the one builder, and :func:`gross_coefficients` is its
one-policy case.  No per-key or reserve triangle is built.

Caps on premium increases break the linearity; capped valuation must use
the brute-force route, for which the uncapped decomposition is a lower
bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .policy_engine import PolicyData
from .term_structures import _readonly

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pricing import BuildingBlockMatrix


@dataclass(frozen=True, eq=False)
class CoefficientTriangle:
    """Lower-triangular coefficients and the fixed-cost vector, in one table.

    ``table`` is (T+2, T+1): row 0 is ``fixed`` and rows 1..T+1 are
    ``coeffs``, both read-only views of it.  ``coeffs[t, s]`` is the
    amount of the index level i_med[s] paid at t (zero for s > t),
    ``fixed[t]`` the amount of i_cost[t] paid at t; the horizon is
    ``len(fixed) - 1``.  ``fixed`` sits on top so that a shorter table is
    the leading block of a longer one: triangles of any horizons add up
    table by table.
    """

    table: np.ndarray
    coeffs: np.ndarray = field(init=False, repr=False)
    fixed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        table = _readonly(self.table, "table", ndim=2)
        n = table.shape[1]
        if table.shape != (n + 1, n):
            raise ValueError(f"table must be (n + 1, n), fixed above n coeffs rows, got {table.shape}")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "coeffs", table[1:])
        object.__setattr__(self, "fixed", table[0])

    @property
    def horizon(self) -> int:
        return len(self.fixed) - 1


def gross_coefficients(policy: PolicyData) -> CoefficientTriangle:
    """Cash-flow coefficient triangle of one policy: ``aggregate([policy])``."""
    return aggregate([policy])


def aggregate_triangles(triangles: Iterable[CoefficientTriangle]) -> CoefficientTriangle:
    """Elementwise sum of triangles, extended with zeros to the largest horizon.

    The input is consumed once: each table is added, in input order, into
    the leading block of one accumulator, which grows with zeros along
    both axes when a longer triangle arrives.  An empty input sums to the
    zero triangle of horizon 0.  The accumulator starts at a 64-byte
    boundary (see `_aligned_zeros`).
    """
    table = _aligned_zeros((2, 1))
    for tri in triangles:
        grow = len(tri.fixed) - table.shape[1]
        if grow > 0:
            grown = _aligned_zeros(tri.table.shape)
            grown[: len(table), : table.shape[1]] = table
            table = grown
        if grow >= 0:
            # Whole-array add: no slice view, no write-back.
            table += tri.table
        else:
            table[: len(tri.table), : len(tri.fixed)] += tri.table
    return CoefficientTriangle(table)


def _aligned_zeros(shape: tuple[int, int]) -> np.ndarray:
    """A zero array of ``shape`` whose data starts at a 64-byte boundary, a cache line.

    Where an allocation happens to start moves the cost of many small
    whole-array adds: 10 000 adds of a 61-date table took 16.4-17.5 ms
    into an accumulator at offset 0 and up to 21.3 ms at offset 16 or 48.
    """
    size = shape[0] * shape[1]
    raw = np.zeros(size + 8)
    skip = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[skip : skip + size].reshape(shape)


def _tariff_key(p: PolicyData) -> tuple:
    """Everything a gross triangle depends on except rs0, compared exactly.

    Tables are matched by their bytes, never by array identity: equal
    tables may live in distinct arrays (a writable input is copied) and
    one array may serve several bases (a read-only one is adopted).  Each
    basis makes its tables' bytes once, however many policies share it.
    """
    fo, so = p.fo, p.so
    return (p.x0, fo.r_calc, fo.margin, fo.c1, so.c2, *fo._table_bytes, *so._table_bytes)


def aggregate(portfolio: Sequence[PolicyData]) -> CoefficientTriangle:
    """Portfolio coefficient triangle, the sum of the per-policy gross triangles, in closed form.

    The net premium is linear in the index levels, P[t] = sum_s net[t, s]
    * i_med[s], and so is the reserve (coefficients rs[t, s]), with
    net[t, s] = [s == t] * A[t]/a[t] - rs[t, s]/a[t] for the first-order
    annuity factor a and benefit value A at age x0+t.  Past the diagonal
    a reserve column rolls up by g[t] * (1 - 1/a[t]) = a[t+1]/a[t], as
    a[t] = 1 + a[t+1]/g[t] with g[t] = (1+r)/(1-q1[t]); so rs[t, s]/a[t]
    is level in t, and an index move shifts every later premium by one
    amount:

        net[t, t] = A[t]/a[t],   net[t, s] = later[s] = (k1[s] - A[s+1]/a[s+1]) / a[s]  for t > s,

    less rs0/a[0] in column 0 for a seasoned provision.  Scaled by
    second-order survival and the margin loading, scale[t] = surv2[t] /
    (1 - margin), with the second-order benefit netted off the diagonal
    and the fixed-cost mismatch carried apart:

        coeffs[t, s] = scale[t] * later[s]                          for t > s
        coeffs[t, t] = scale[t] * net[t, t] - surv2[t] * k2[t]
        fixed[t]     = surv2[t] * (c1 / (1 - margin) - c2)

    A triangle is affine in rs0, so the n policies of one (tariff, entry
    age) key sum to n times the triangle at their mean provision: the
    closed form is evaluated once per key, in order of first appearance.
    Below the diagonal every key is rank one, so the portfolio block is
    tril(S^T L, -1) for the keys x dates matrices S (rows n * scale) and
    L (rows later), one matrix product; the diagonal and ``fixed`` are
    sums of the keys' vectors, in key order.  A shorter key's rows are
    zero past its run-off.
    """
    groups: dict[tuple, list] = {}
    for p in portfolio:
        group = groups.setdefault(_tariff_key(p), [p, 0, 0.0])
        group[1] += 1
        group[2] += p.rs0
    dates = max((first.run_off + 1 for first, _, _ in groups.values()), default=1)
    scales, laters = np.zeros((2, len(groups), dates))
    diagonal, fixed = np.zeros((2, dates))
    for k, (first, n, rs0_sum) in enumerate(groups.values()):
        fo, so, surv2 = first.fo, first.so, first.surv2
        m = len(surv2)
        ages = slice(first.x0, first.x0 + m)
        a, A, k1, k2 = fo.annuity[ages], fo.benefit_value[ages], fo.k1[ages], so.k2[ages]
        loading = 1.0 / (1.0 - fo.margin)
        scale = surv2 * loading
        # net[t, t], and the one net[t, s] of every t > s, into row k of L.
        # Columns m - 1 on of that row meet only the zeros of S[k], so the
        # provision may land in L[k, 0] even when m = 1.
        current = A / a
        laters[k, : m - 1] = (k1[:-1] - A[1:] / a[1:]) / a[:-1]
        current[0] -= rs0_sum / n / a[0]
        laters[k, 0] -= rs0_sum / n / a[0]
        scales[k, :m] = n * scale
        diagonal[:m] += n * (scale * current - surv2 * k2)
        fixed[:m] += n * (surv2 * (fo.c1 * loading - so.c2))
    table = np.vstack([fixed, np.tril(scales.T @ laters, -1)])
    np.fill_diagonal(table[1:], diagonal)
    table.setflags(write=False)
    return CoefficientTriangle(table)


def be_by_date(tri: CoefficientTriangle, blocks: "BuildingBlockMatrix") -> tuple[float, np.ndarray]:
    """Best Estimate and its per-date contributions from building-block prices.

    per_t[t] = -( sum_{s<=t} coeffs[t, s] * E[i_med[s]/bn[t]]
                  + fixed[t] * E[i_cost[t]/bn[t]] ),

    and the BE is their total, reduced over the whole priced triangle at
    once rather than over ``per_t``.
    """
    if blocks.horizon < tri.horizon:
        raise ValueError(
            f"horizon shortfall: triangle needs {tri.horizon}, blocks cover {blocks.horizon}"
        )
    n = tri.horizon + 1
    priced = tri.coeffs * blocks.med[:n, :n]
    cost = blocks.cost_diag[:n]
    be = -(float(np.sum(priced)) + float(np.dot(tri.fixed, cost)))
    return be, -(np.sum(priced, axis=1) + tri.fixed * cost)


def be_from_blocks(tri: CoefficientTriangle, blocks: "BuildingBlockMatrix") -> float:
    """Best Estimate from a coefficient triangle and building-block prices (see :func:`be_by_date`)."""
    return be_by_date(tri, blocks)[0]
