"""Static coefficient decomposition of health-insurance cash flows.

The projected cash flow of a policy at date t is linear in the index
levels seen so far:

    CF[t] = sum_{s<=t} coeffs[t, s] * i_med[s]  +  fixed[t] * i_cost[t]

with coefficients depending only on policy data.  Valuation therefore
splits into a per-policy coefficient computation (this module, O(T^2)
via the inductive recursion, never by symbolic expansion) and pricing of
the basis instruments E[i_med[s] / bn[t]] (module ``pricing``).  The sum
of the per-policy triangles values a whole portfolio, which makes the
Monte-Carlo cost independent of the number of policies.  A seasoned
provision rs0 enters a triangle only in column 0, and only affinely, so
the n policies of one (tariff, entry age) key sum to n * T(mean rs0):
the coefficient cost grows with the number of distinct keys, not with
the number of policies.

A triangle is stored like the block prices it multiplies: a dense
(T+1, T+1) array with zeros above the diagonal, so a horizon-h triangle
is the leading (h+1, h+1) block of any longer one.  Portfolio
aggregation is plain elementwise addition into that block of one
running accumulator: per-key triangles are streamed, never stored, and
no reserve triangle is built.

Caps on premium increases break the linearity; capped valuation must use
the brute-force route, for which the uncapped decomposition is a lower
bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .policy_engine import PolicyData, PolicySchedule, build_schedule
from .term_structures import _readonly

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pricing import BuildingBlockMatrix


@dataclass(frozen=True, eq=False)
class CoefficientTriangle:
    """Lower-triangular coefficients plus the fixed-cost vector.

    ``coeffs[t, s]`` is the amount of the index level i_med[s] paid at t
    (zero for s > t), ``fixed[t]`` the amount of i_cost[t] paid at t; the
    horizon is ``len(fixed) - 1``.  A shorter triangle is the leading
    block of a longer one, so triangles of any horizons add up.
    """

    coeffs: np.ndarray
    fixed: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _readonly(self.coeffs, "coeffs", ndim=2))
        object.__setattr__(self, "fixed", _readonly(self.fixed, "fixed"))
        n = len(self.fixed)
        if self.coeffs.shape != (n, n):
            raise ValueError(
                f"coeffs must be ({n}, {n}), one entry per date pair, got {self.coeffs.shape}"
            )

    @property
    def horizon(self) -> int:
        return len(self.fixed) - 1


def _net_reserve(sched: PolicySchedule) -> np.ndarray:
    """Net-premium coefficients (see :func:`gross_coefficients`); one reserve row rolls forward."""
    horizon = sched.horizon
    rs0 = sched.policy.rs0
    net = np.zeros((horizon + 1, horizon + 1))
    rs = np.zeros(horizon + 1)
    rs[0] = rs0
    net[0, 0] = (sched.benefit_value[0] - rs0) / sched.annuity[0]
    for t in range(1, horizon + 1):
        rs_row = rs[:t]
        rs_row += net[t - 1, :t]
        rs_row[t - 1] -= sched.k1[t - 1]
        rs_row *= sched.growth[t - 1]
        np.divide(rs_row, -sched.annuity[t], out=net[t, :t])
        net[t, t] = sched.benefit_value[t] / sched.annuity[t]
    return net


def gross_coefficients(policy: PolicyData) -> CoefficientTriangle:
    """Cash-flow coefficient triangle of one policy.

    The net premium is linear in the index levels, P[t] = sum_s
    net[t, s] * i_med[s], and so is the reserve, RS[t] = sum_s rs[t, s]
    * i_med[s].  Both follow the inductive recursion

        rs[t+1, s]  = g[t] * (rs[t, s] + net[t, s] - [s == t] * k1[t])
        net[t, s]   = [s == t] * A[t]/a[t]  -  rs[t, s]/a[t]

    with g[t] = (1+r)/(1-q1[t]).  A seasoned provision enters as the
    (0, 0) reserve entry, the coefficient of i_med[0] == 1.  The net
    triangle is then scaled by second-order survival and the margin
    loading, the second-order benefit is netted off the diagonal, and
    the fixed-cost mismatch is carried in the fixed vector:

        coeffs[t, s] = surv2[t] * net[t, s] / (1 - margin) - [s == t] * surv2[t] * k2[t]
        fixed[t]     = surv2[t] * (c1 / (1 - margin) - c2)
    """
    sched = build_schedule(policy)
    loading = 1.0 / (1.0 - policy.fo.margin)
    coeffs = _net_reserve(sched) * (sched.surv2 * loading)[:, None]
    coeffs -= np.diag(sched.surv2 * sched.k2)
    fixed = sched.surv2 * (policy.fo.c1 * loading - policy.so.c2)
    return CoefficientTriangle(coeffs, fixed)


def aggregate_triangles(triangles: Iterable[CoefficientTriangle]) -> CoefficientTriangle:
    """Elementwise sum of triangles, extended with zeros to the largest horizon.

    The input is consumed once: each triangle is added, in input order,
    into the leading block of one accumulator, which grows with zeros
    along both axes when a longer triangle arrives.  An empty input sums
    to the zero triangle of horizon 0.
    """
    coeffs, fixed = np.zeros((1, 1)), np.zeros(1)
    for tri in triangles:
        n = len(tri.fixed)
        if n > len(fixed):
            coeffs = np.pad(coeffs, (0, n - len(fixed)))
            fixed = np.pad(fixed, (0, n - len(fixed)))
        if n == len(fixed):
            # Whole-array adds: no slice view, no write-back.
            coeffs += tri.coeffs
            fixed += tri.fixed
        else:
            coeffs[:n, :n] += tri.coeffs
            fixed[:n] += tri.fixed
    return CoefficientTriangle(coeffs, fixed)


def _tariff_key(p: PolicyData) -> tuple:
    """Everything a gross triangle depends on except rs0, compared exactly.

    Bases copy their tables, so equal tables are matched by their bytes,
    never by array identity.
    """
    fo, so = p.fo, p.so
    tables = (fo.k1, fo.q1, so.k2, so.q2)
    return (p.x0, fo.r_calc, fo.margin, fo.c1, so.c2, *(table.tobytes() for table in tables))


def aggregate(portfolio: Sequence[PolicyData]) -> CoefficientTriangle:
    """Portfolio coefficient triangle: sum of the per-policy gross triangles.

    A triangle is affine in rs0, T(r) = T(0) + r * d, so the n policies
    of one (tariff, entry age) group sum to

        n * T(0) + sum(rs0) * d  =  n * T(sum(rs0) / n)

    and one ``gross_coefficients`` call per group, at the group's mean
    provision, replaces one per policy.  Groups are taken in order of
    first appearance and summed by :func:`aggregate_triangles`; with
    distinct keys this is bitwise the per-policy sum.
    """
    groups: dict[tuple, list] = {}
    for p in portfolio:
        group = groups.setdefault(_tariff_key(p), [p, 0, 0.0])
        group[1] += 1
        group[2] += p.rs0

    def group_triangles():
        for first, n, rs0_sum in groups.values():
            tri = gross_coefficients(replace(first, rs0=rs0_sum / n))
            yield CoefficientTriangle(n * tri.coeffs, n * tri.fixed)

    return aggregate_triangles(group_triangles())


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
