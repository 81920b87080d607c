"""Policy data and the equivalence-principle projection machinery.

A policy carries two actuarial bases over integer ages x = 0..omega:

- first order (prudent, used to set premiums): annual benefits ``k1`` at
  today's price level, combined death/surrender probabilities ``q1`` with
  ``q1[omega] == 1``, technical rate ``r_calc``, fixed cost ``c1``,
  premium margin ``margin``;
- second order (best estimate, used to project the actual cash flow):
  ``k2``, ``q2``, ``c2``.

Premiums, benefits and costs all fall on integer dates t; the medical
index value observed at t applies to the adjustment taking effect at t.
The net premium at every date is set so that reserve plus annuity-value
of future premiums equals the index-adjusted benefit value, which pins
the whole premium path once the inflation path is known:

    P[t]  = (i_med[t] * A[x0+t] - RS[t]) / a[x0+t]
    RS[t+1] = (RS[t] + P[t] - i_med[t] * k1[x0+t]) * (1 + r) / (1 - q1[x0+t])

with a[x] the premium annuity factor and A[x] the benefit present value
under the first-order basis.  Gross premiums add the cost loading and
margin; the projected cash flow weighs the gross premium against
second-order benefits/costs and second-order survival.

The annuity factors a[x] and benefit values A[x] depend on the age alone,
so a first-order basis computes them once for ages 0..omega and every
contract slices its own ages from them.

Projection steps through the dates one at a time, vectorized over many
inflation paths held time-major (row t is every path's level at t).
Each step writes into path-length buffers made once per projection, so
it allocates nothing.  The brute-force portfolio valuation
(`simulate_portfolio`) reduces each date as it arrives, so it keeps no
per-policy cash-flow array; the cap's allowed increase factors depend
on the cost index alone, so it tabulates them once per call for every
policy.  `project` stacks the dates of its single path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .term_structures import InflationSpread, ScenarioSet, _readonly

#: Terminal age used by the shipped table builders; q[omega] must be 1.
DEFAULT_TERMINAL_AGE = 121


@dataclass(frozen=True, eq=False)
class FirstOrderBasis:
    """Prudent pricing basis: benefits, terminations, rate, cost, margin.

    ``annuity[x]`` and ``benefit_value[x]`` are the premium annuity factor
    and benefit present value at every age x = 0..omega, computed once
    here (see `_value_tables`); every contract on the basis slices them.
    """

    k1: np.ndarray
    q1: np.ndarray
    r_calc: float
    c1: float = 0.0
    margin: float = 0.0
    annuity: np.ndarray = field(init=False, repr=False)
    benefit_value: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "k1", _readonly(self.k1, "k1"))
        object.__setattr__(self, "q1", _readonly(self.q1, "q1"))
        _validate_tables(self.k1, self.q1, "first-order")
        if not self.r_calc > -1.0:
            raise ValueError(f"technical rate must exceed -1, got {self.r_calc}")
        if not self.c1 >= 0.0:
            raise ValueError("annual fixed cost must be nonnegative")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError(f"margin must lie in [0, 1), got {self.margin}")
        for name, table in zip(("annuity", "benefit_value"), _value_tables(self)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @property
    def terminal_age(self) -> int:
        return len(self.q1) - 1

    @cached_property
    def _table_bytes(self) -> tuple[bytes, bytes]:
        """The bytes of ``k1`` and ``q1``, made once per basis for tariff keys."""
        return self.k1.tobytes(), self.q1.tobytes()


@dataclass(frozen=True, eq=False)
class SecondOrderBasis:
    """Best-estimate basis used to project the actual cash flow."""

    k2: np.ndarray
    q2: np.ndarray
    c2: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "k2", _readonly(self.k2, "k2"))
        object.__setattr__(self, "q2", _readonly(self.q2, "q2"))
        _validate_tables(self.k2, self.q2, "second-order")
        if not self.c2 >= 0.0:
            raise ValueError("annual fixed cost must be nonnegative")

    @property
    def terminal_age(self) -> int:
        return len(self.q2) - 1

    @cached_property
    def _table_bytes(self) -> tuple[bytes, bytes]:
        """The bytes of ``k2`` and ``q2``, made once per basis for tariff keys."""
        return self.k2.tobytes(), self.q2.tobytes()


def _validate_tables(k: np.ndarray, q: np.ndarray, label: str) -> None:
    if len(k) != len(q):
        raise ValueError(f"{label} benefit and termination tables must cover the same ages")
    if len(q) < 1:
        raise ValueError(f"{label} tables must not be empty")
    if np.any(k < 0.0):
        raise ValueError(f"{label} benefits must be nonnegative")
    if np.any(q < 0.0) or np.any(q > 1.0):
        raise ValueError(f"{label} termination probabilities must lie in [0, 1]")
    if q[-1] != 1.0:
        raise ValueError(f"{label} termination probability at the terminal age must be 1")


@dataclass(frozen=True, eq=False)
class PolicyData:
    """Contract state: entry age, both bases, seasoned provision, identifier.

    ``run_off`` is the projection horizon: the first t at which the
    first-order termination probability hits 1.  The second-order basis
    must terminate no later, otherwise cash flows would extend past dates
    for which a premium is defined (inconsistent tables).
    """

    x0: int
    fo: FirstOrderBasis
    so: SecondOrderBasis
    rs0: float = 0.0
    id: str = ""
    run_off: int = field(init=False)

    def __post_init__(self) -> None:
        if self.x0 < 0 or self.x0 > self.fo.terminal_age:
            raise ValueError(f"entry age {self.x0} outside first-order table")
        if self.x0 > self.so.terminal_age:
            raise ValueError(f"entry age {self.x0} outside second-order table")
        if not (np.isfinite(self.rs0) and self.rs0 >= 0.0):
            raise ValueError(f"initial provision must be finite and >= 0, got {self.rs0}")
        horizon = int(np.argmax(self.fo.q1[self.x0 :] == 1.0))
        if self.x0 + horizon > self.so.terminal_age:
            raise ValueError(
                f"policy {self.id!r}: second-order table ends at age {self.so.terminal_age}, "
                f"run-off needs age {self.x0 + horizon}"
            )
        so_horizon_slice = self.so.q2[self.x0 : self.x0 + horizon + 1]
        if not np.any(so_horizon_slice == 1.0):
            raise ValueError(
                f"policy {self.id!r}: second-order survival outlives the first-order "
                "run-off; premiums are undefined past it (inconsistent q tables)"
            )
        object.__setattr__(self, "run_off", horizon)


@dataclass(frozen=True)
class CapRule:
    """Premium-increase limitation rule.

    The applied gross premium is a pure function of (previous applied
    gross, proposed gross, cost-index step): the annual increase factor
    is capped at max(1 + abs_increase, inflation_multiple * step).  Caps
    only bind on increases; each capped year the foregone net premium is
    compensated by a provision top-up, so the reserve path matches the
    uncapped one.
    """

    abs_increase: float = 0.05
    inflation_multiple: float = 2.0

    def __post_init__(self) -> None:
        if not self.abs_increase >= 0.0:
            raise ValueError("abs_increase must be nonnegative")
        if not self.inflation_multiple >= 0.0:
            raise ValueError("inflation_multiple must be nonnegative")

    def allowed_factors(self, i_cost: np.ndarray) -> np.ndarray:
        """Allowed increase factor of every date t >= 1 of a time-major cost index.

        Row t-1 holds max(1 + abs_increase, inflation_multiple * i_cost[t] / i_cost[t-1]),
        one value per path; the factors depend on the index alone, so one
        table serves every policy projected along the same paths.
        """
        factors = np.divide(i_cost[1:], i_cost[:-1])
        np.multiply(factors, self.inflation_multiple, out=factors)
        return np.maximum(factors, 1.0 + self.abs_increase, out=factors)

    @staticmethod
    def apply(applied: np.ndarray, proposed: np.ndarray, factor: np.ndarray, passthrough: np.ndarray) -> None:
        """Advance the applied gross premium by one date, in place.

        On entry ``applied`` holds the previous date's applied premium; on
        exit min(proposed, applied * factor), or ``proposed`` itself where
        the previous premium was not positive.  Decreases always pass.
        ``passthrough`` is a boolean buffer of the same shape, overwritten.
        """
        np.less_equal(applied, 0.0, out=passthrough)
        np.multiply(applied, factor, out=applied)
        np.minimum(proposed, applied, out=applied)
        np.copyto(applied, proposed, where=passthrough)


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Premiums, reserves and projected cash flow along one inflation path.

    Sign convention for ``cashflow``: insurer income positive (premiums),
    benefits and costs negative.  Under a cap the premium entries are the
    applied (capped) ones; ``reserves`` always follows the uncapped
    recursion because each cap year is compensated by a provision top-up.
    """

    premiums_net: np.ndarray
    premiums_gross: np.ndarray
    reserves: np.ndarray
    cashflow: np.ndarray
    negative_premium: bool = False
    cap_bound: bool = False

    def __post_init__(self) -> None:
        for name in ("premiums_net", "premiums_gross", "reserves", "cashflow"):
            object.__setattr__(self, name, _readonly(getattr(self, name), name))


@dataclass(frozen=True, eq=False)
class PolicySchedule:
    """Per-date arrays derived from a policy, for t = 0..run_off.

    annuity[t] and benefit_value[t] are the first-order annuity factor and
    benefit present value at age x0+t; growth[t] is the reserve roll-up
    factor (1+r)/(1-q1) for t < run_off; surv2[t] the second-order
    in-force probability at t.
    """

    policy: PolicyData
    annuity: np.ndarray
    benefit_value: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    growth: np.ndarray
    surv2: np.ndarray

    @property
    def horizon(self) -> int:
        return self.policy.run_off


def _value_tables(fo: FirstOrderBasis) -> tuple[np.ndarray, np.ndarray]:
    """First-order annuity factors a and benefit PVs A for ages 0..omega, one backward pass.

    a[x] is the PV of an annual unit payment from age x while in force
    (>= 1: the first payment is certain), A[x] the PV of the benefits at
    today's price level; both discount by (1-q1)/(1+r) per year, so they
    truncate where survival hits zero.  The pass runs from omega down, so
    the entries at ages >= x do not depend on where a contract enters.
    """
    omega = fo.terminal_age
    ann = np.empty(omega + 1)
    apv = np.empty(omega + 1)
    ann[omega] = 1.0
    apv[omega] = fo.k1[omega]
    for x in range(omega - 1, -1, -1):
        disc = (1.0 - fo.q1[x]) / (1.0 + fo.r_calc)
        ann[x] = 1.0 + disc * ann[x + 1]
        apv[x] = fo.k1[x] + disc * apv[x + 1]
    return ann, apv


def build_schedule(policy: PolicyData) -> PolicySchedule:
    """Precompute everything projection and decomposition need per date."""
    x0, horizon = policy.x0, policy.run_off
    q1 = policy.fo.q1[x0 : x0 + horizon + 1]
    q2 = policy.so.q2[x0 : x0 + horizon + 1]
    surv2 = np.empty(horizon + 1)
    surv2[0] = 1.0
    np.cumprod(1.0 - q2[:-1], out=surv2[1:])
    return PolicySchedule(
        policy=policy,
        annuity=policy.fo.annuity[x0 : x0 + horizon + 1],
        benefit_value=policy.fo.benefit_value[x0 : x0 + horizon + 1],
        k1=policy.fo.k1[x0 : x0 + horizon + 1],
        k2=policy.so.k2[x0 : x0 + horizon + 1],
        growth=(1.0 + policy.fo.r_calc) / (1.0 - q1[:-1]) if horizon > 0 else np.empty(0),
        surv2=surv2,
    )


def _check_inflation(arr, horizon: int, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    if arr.shape[1] < horizon + 1:
        raise ValueError(f"{name} covers {arr.shape[1] - 1} years, run-off needs {horizon}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be strictly positive (index levels)")
    if np.any(np.abs(arr[:, 0] - 1.0) > 1e-12):
        raise ValueError(f"{name}[0] must be 1 at the valuation date")
    return arr[:, : horizon + 1]


def _project_paths(
    schedule: PolicySchedule,
    i_med: np.ndarray,
    i_cost: np.ndarray,
    cap_factors: Optional[np.ndarray] = None,
    real_rate: bool = False,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Premium recursion over dates, vectorized over paths.

    ``i_med`` and ``i_cost`` are time-major: row t holds every path's
    level at t.  Under a cap, ``cap_factors`` is ``cap.allowed_factors(i_cost)``,
    made once by the caller for every policy on the same paths.  Yields
    ``(net, gross, applied, reserve, cashflow, cashflow_uncapped)`` for
    t = 0..run_off, each one value per path: ``applied`` is the capped
    gross premium and ``cashflow`` the flow it pays, ``cashflow_uncapped``
    the flow of ``gross``; without a cap both pairs are the same array.
    The reserve follows the uncapped recursion whatever the cap.  The
    yielded arrays are buffers made once per call and overwritten at the
    next date, so a caller reads them before it resumes the generator.
    """
    policy = schedule.policy
    one_minus_margin = 1.0 - policy.fo.margin
    c1, c2 = policy.fo.c1, policy.so.c2
    n = i_med.shape[1]
    rs = np.full(n, policy.rs0)
    net, gross, benefits, costs, cashflow = (np.empty(n) for _ in range(5))
    if cap_factors is None:
        applied, uncapped = gross, cashflow
    else:
        applied, uncapped, passthrough = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    # The in-place steps keep the order of operations of the formulas in
    # the comments, so every figure is bit for bit the formula's.
    for t in range(schedule.horizon + 1):
        im, ic = i_med[t], i_cost[t]
        # net = (im * A[t] - rs) / a[t]; gross = (net + ic * c1) / (1 - margin)
        np.multiply(im, schedule.benefit_value[t], out=net)
        net -= rs
        net /= schedule.annuity[t]
        np.multiply(ic, c1, out=gross)
        np.add(net, gross, out=gross)
        gross /= one_minus_margin
        # Second-order outgo, shared by the capped and the uncapped flow.
        np.multiply(im, schedule.k2[t], out=benefits)
        np.multiply(ic, c2, out=costs)
        if cap_factors is not None:
            if t == 0:
                np.copyto(applied, gross)
            else:
                CapRule.apply(applied, gross, cap_factors[t - 1], passthrough)
            _cashflow(gross, benefits, costs, schedule.surv2[t], out=uncapped)
        _cashflow(applied, benefits, costs, schedule.surv2[t], out=cashflow)
        yield net, gross, applied, rs, cashflow, uncapped
        if t < schedule.horizon:
            # Proposed (uncapped) net premium feeds the reserve: the cap's
            # foregone amount is topped up from the insurer's funds.
            # rs = (rs + net - im * k1[t]) * growth[t]
            rs += net
            np.multiply(im, schedule.k1[t], out=benefits)
            rs -= benefits
            rs *= schedule.growth[t]
            if real_rate:
                np.divide(i_med[t + 1], im, out=benefits)
                rs *= benefits


def _cashflow(premium, benefits, costs, surv2: float, out: np.ndarray) -> np.ndarray:
    """(premium - benefits - costs) * surv2 into ``out``: insurer income positive."""
    np.subtract(premium, benefits, out=out)
    out -= costs
    out *= surv2
    return out


def _project_one(
    policy: PolicyData, i_med, i_cost, cap: Optional[CapRule], real_rate: bool = False
) -> ProjectionResult:
    """Validate one inflation path, run the kernel on it and stack its dates."""
    schedule = build_schedule(policy)
    im = _check_inflation(i_med, schedule.horizon, "i_med")[0][:, None]
    ic = _check_inflation(i_cost, schedule.horizon, "i_cost")[0][:, None]
    factors = None if cap is None else cap.allowed_factors(ic)
    rows = np.empty((6, schedule.horizon + 1))
    for t, values in enumerate(_project_paths(schedule, im, ic, factors, real_rate)):
        rows[:, t] = np.concatenate(values)
    net, gross, applied, reserves, cashflow, uncapped = rows
    if not (np.all(np.isfinite(cashflow)) and np.all(np.isfinite(uncapped))):
        raise ValueError(f"policy {policy.id!r}: projection produced non-finite values")
    paid_net = net if cap is None else applied * (1.0 - policy.fo.margin) - ic[:, 0] * policy.fo.c1
    return ProjectionResult(
        paid_net,
        applied,
        reserves,
        cashflow,
        negative_premium=bool(np.any(net < 0.0)),
        cap_bound=bool(np.any((applied < gross) & (schedule.surv2 > 0.0))),
    )


def project(
    policy: PolicyData,
    i_med,
    i_cost,
    cap: Optional[CapRule] = None,
) -> ProjectionResult:
    """Project premiums, reserves and cash flow along one inflation path.

    ``i_med`` and ``i_cost`` are index levels at t = 0..run_off (at
    least), both 1 at the valuation date.  With a cap, premium entries are
    the applied ones while reserves follow the uncapped recursion (the
    foregone net premium is added back each capped year).
    """
    return _project_one(policy, i_med, i_cost, cap)


def project_real_rate(policy: PolicyData, i_med) -> ProjectionResult:
    """Projection with the technical rate treated as a real rate.

    The reserve roll-up gains a factor i_med[t+1]/i_med[t], which makes
    net premiums track the index exactly: P[t] = i_med[t] * P[0].  That
    identity is verified here and its failure raises (it signals a
    numerically hostile basis).  The cost index is taken equal to the
    medical index for the gross figures.
    """
    i_med = _check_inflation(i_med, policy.run_off, "i_med")
    result = _project_one(policy, i_med, i_med, cap=None, real_rate=True)
    p = result.premiums_net
    scale = max(abs(p[0]), 1e-12)
    drift = np.max(np.abs(p - i_med[0] * p[0])) / scale
    if drift > 1e-11:
        raise ArithmeticError(
            f"policy {policy.id!r}: real-rate premium identity violated ({drift:.2e} relative)"
        )
    return result


def first_order_pv(fo: FirstOrderBasis, x0: int, values, rate: float) -> float:
    """PV of dated amounts under first-order survival and a flat annual rate."""
    values = np.asarray(values, dtype=float)
    surv = np.empty(len(values))
    surv[0] = 1.0
    np.cumprod(1.0 - fo.q1[x0 : x0 + len(values) - 1], out=surv[1:])
    disc = (1.0 + rate) ** -np.arange(len(values))
    return float(np.sum(values * surv * disc))


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Brute-force valuation output: Best Estimate plus per-date contributions.

    Under a cap, ``be``/``per_t``/``cap_bound`` are the capped figures and
    ``uncapped`` holds the uncapped result of the same pass; None otherwise.
    """

    be: float
    per_t: np.ndarray
    cap_bound: bool
    uncapped: Optional["SimulationResult"] = None


def simulate_portfolio(
    portfolio: Sequence[PolicyData],
    s: ScenarioSet,
    spread: Optional[InflationSpread] = None,
    cap: Optional[CapRule] = None,
) -> SimulationResult:
    """Value a portfolio by tracking every policy along every path.

    BE = -sum_k w_k sum_policies sum_t CF[t](path k) / bn_k[t].  This is
    the reference route the coefficient decomposition is tested against,
    and the only route that supports premium caps.  Indices and discount
    factors are built once time-major, straight into their buffers, and
    the cap's allowed factors tabulated once for all policies; each
    policy's projection is reduced date by date into ``per_t``, with no
    per-policy (paths x dates) array.  Under a cap each policy is still
    projected once; the same pass gives ``.uncapped``.
    """
    horizon = max((p.run_off for p in portfolio), default=0)
    for p in portfolio:
        if p.run_off > s.horizon:
            raise ValueError(
                f"policy {p.id!r} runs {p.run_off} years but scenarios stop at {s.horizon}"
            )
    if spread is None:
        spread = InflationSpread()
    per_t, per_t_uncapped = np.zeros(horizon + 1), np.zeros(horizon + 1)
    bound = False
    i_med = spread.index(s, "med", time_major=True)
    i_cost = spread.index(s, "cost", time_major=True)
    disc = np.divide(s.weights, s.bn.T, out=np.empty((s.horizon + 1, s.n_paths)))
    factors = None if cap is None else cap.allowed_factors(i_cost)
    weighted = np.empty(s.n_paths)
    for p in portfolio:
        schedule = build_schedule(p)
        dates = _project_paths(schedule, i_med, i_cost, factors)
        for t, (_, gross, applied, _, cashflow, uncapped) in enumerate(dates):
            per_t[t] -= np.multiply(disc[t], cashflow, out=weighted).sum()
            if cap is not None:
                per_t_uncapped[t] -= np.multiply(disc[t], uncapped, out=weighted).sum()
                bound = bound or (schedule.surv2[t] > 0.0 and bool(np.any(applied < gross)))
        if not (np.all(np.isfinite(per_t)) and np.all(np.isfinite(per_t_uncapped))):
            raise ValueError(f"policy {p.id!r}: projection produced non-finite values")
    uncapped = None if cap is None else SimulationResult(float(per_t_uncapped.sum()), per_t_uncapped, False)
    return SimulationResult(be=float(per_t.sum()), per_t=per_t, cap_bound=bound, uncapped=uncapped)
