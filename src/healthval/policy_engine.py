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
so a first-order basis computes them once for ages 0..omega.  A policy
needs no table of its own: the kernel (`_step`) and the closed-form
triangle (`decomposition.aggregate`) read the bases' age tables at age
x0 + t, and the kernel forms the roll-up (1 + r) / (1 - q1[x0+t]) where
it multiplies the reserve.  The one per-policy vector is
``PolicyData.surv2``, the second-order in-force probability at
t = 0..run_off.  It is not cached: each read makes it anew, so every
route reads it once per policy it steps (once per key in `aggregate`),
holds it while it steps, and a policy keeps no array of its own.

Projection steps through the dates one at a time, vectorized over many
inflation paths: `_step` advances one policy by one date from path-length
rows of the indices, writing into shared path-length scratch buffers, so
it allocates nothing.  The brute-force portfolio valuation
(`simulate_portfolio`) cuts the portfolio into contiguous shares of about
equal work, one per CPU in the process's affinity mask, but none
carrying less than a measured break-even amount of work
(``_SHARE_WORK``), so a small portfolio is one share.  This process
steps the first share; on Linux a child made by ``os.fork`` steps each
other one and writes its policies' per-date flow sums into memory
shared with this process.  A share whose child did not finish is
stepped again here, and no child outlives the call.  Within a share
the policies are taken in groups that walk the dates outermost: each
date's index, discount and cap-factor rows are built once for the
group, and every running policy steps through the date.  A step writes
each flow before survival, premium - benefits - costs, multiplying by
the reciprocals of a[x0+t] and 1 - margin rather than dividing; each
flow is summed against the discount row in one BLAS-free pass
(``np.einsum``), and the sum is weighed by the scalar ``surv2[t]``.  A
policy carries only its reserve and, under a cap, its applied premium
from one date to the next, so no (paths x dates) table is built.
``per_t`` then subtracts the sums policy by policy in portfolio order,
the operations of a one-process pass in the same order, so every
figure has the same bits whatever the number of shares.  `project` steps its single path and stacks the dates.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .term_structures import InflationSpread, ScenarioSet, _cpus, _readonly


class _FieldError(ValueError):
    """A value a basis or policy rejects; ``field`` names it (a portfolio column)."""

    def __init__(self, field_name: str, reason: str):
        super().__init__(reason)
        self.field = field_name


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
        _validate_tables(self.k1, self.q1, "first-order", "benefit_table")
        if not self.r_calc > -1.0:
            raise _FieldError("r_calc", f"technical rate r_calc must exceed -1, got {self.r_calc}")
        if not self.c1 >= 0.0:
            raise _FieldError("c1", f"annual fixed cost c1 must be nonnegative, got {self.c1}")
        if not 0.0 <= self.margin < 1.0:
            raise _FieldError("margin", f"margin must lie in [0, 1), got {self.margin}")
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
        _validate_tables(self.k2, self.q2, "second-order", "benefit_table_2nd")
        if not self.c2 >= 0.0:
            raise _FieldError("c2", f"annual fixed cost c2 must be nonnegative, got {self.c2}")

    @property
    def terminal_age(self) -> int:
        return len(self.q2) - 1

    @cached_property
    def _table_bytes(self) -> tuple[bytes, bytes]:
        """The bytes of ``k2`` and ``q2``, made once per basis for tariff keys."""
        return self.k2.tobytes(), self.q2.tobytes()


def _validate_tables(k: np.ndarray, q: np.ndarray, label: str, benefit_column: str) -> None:
    # The termination table's ages end at its q = 1, so a length mismatch
    # is the benefit table's.
    if len(k) != len(q):
        raise _FieldError(benefit_column, f"{label} benefit and termination tables must cover the same ages")
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
            raise _FieldError("x0", f"entry age x0 = {self.x0} outside first-order table")
        if self.x0 > self.so.terminal_age:
            raise _FieldError("x0", f"entry age x0 = {self.x0} outside second-order table")
        if not (np.isfinite(self.rs0) and self.rs0 >= 0.0):
            raise _FieldError("rs0", f"initial provision rs0 must be finite and >= 0, got {self.rs0}")
        horizon = int(np.argmax(self.fo.q1[self.x0 :] == 1.0))
        if self.x0 + horizon > self.so.terminal_age:
            raise ValueError(
                f"second-order table ends at age {self.so.terminal_age}, run-off needs age {self.x0 + horizon}"
            )
        so_horizon_slice = self.so.q2[self.x0 : self.x0 + horizon + 1]
        if not np.any(so_horizon_slice == 1.0):
            raise ValueError(
                "second-order survival outlives the first-order run-off; "
                "premiums are undefined past it (inconsistent q tables)"
            )
        object.__setattr__(self, "run_off", horizon)

    @property
    def surv2(self) -> np.ndarray:
        """Second-order in-force probability at t = 0..run_off, made anew on every read.

        surv2[0] = 1 and surv2[t] = prod_{u<t} (1 - q2[x0+u]).  Nothing is
        kept on the policy: a caller reads it once and holds it while it
        steps the policy.
        """
        q2 = self.so.q2[self.x0 : self.x0 + self.run_off]
        surv2 = np.empty(self.run_off + 1)
        surv2[0] = 1.0
        np.cumprod(1.0 - q2, out=surv2[1:])
        return surv2


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

    def allowed_factor(
        self, i_cost_prev: np.ndarray, i_cost: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Allowed increase factor from date t-1 to t, one value per path, into ``out``.

        max(1 + abs_increase, inflation_multiple * i_cost[t] / i_cost[t-1])
        from the cost index at t-1 and at t; it depends on the index
        alone, so one row serves every policy projected along the same
        paths.
        """
        out = np.divide(i_cost, i_cost_prev, out=out)
        np.multiply(out, self.inflation_multiple, out=out)
        return np.maximum(out, 1.0 + self.abs_increase, out=out)

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


def _check_inflation(arr, horizon: int, name: str) -> np.ndarray:
    """One validated path of index levels at t = 0..horizon."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one path of index levels (1-D), got shape {arr.shape}")
    if len(arr) < horizon + 1:
        raise ValueError(f"{name} covers {len(arr) - 1} years, run-off needs {horizon}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be strictly positive (index levels)")
    if abs(arr[0] - 1.0) > 1e-12:
        raise ValueError(f"{name}[0] must be 1 at the valuation date")
    return arr[: horizon + 1]


def _scratch(n_paths: int, capped: bool) -> tuple:
    """Path-length buffers of one date's step: net, gross, benefits, costs, both cash flows, passthrough.

    A step overwrites every one of them, so all the policies stepped on
    the same paths share one set.  Without a cap the uncapped flow is the
    cash flow itself and there is no passthrough buffer.
    """
    net, gross, benefits, costs, cashflow = (np.empty(n_paths) for _ in range(5))
    if not capped:
        return net, gross, benefits, costs, cashflow, cashflow, None
    return net, gross, benefits, costs, cashflow, np.empty(n_paths), np.empty(n_paths, dtype=bool)


def _step(
    policy: PolicyData,
    t: int,
    im: np.ndarray,
    ic: np.ndarray,
    factor: Optional[np.ndarray],
    rs: np.ndarray,
    applied: Optional[np.ndarray],
    scratch: tuple,
) -> None:
    """Date t of one policy's premium recursion, vectorized over paths, in place.

    The bases' age tables are read at age x0 + t.  ``im`` and ``ic`` hold
    every path's medical and cost index at t.  On entry ``rs`` holds the
    policy's reserve at t and, under a cap, ``applied`` its applied gross
    premium at t-1 (anything at t = 0) and ``factor`` the cap's allowed
    factor from t-1 to t; without a cap ``applied`` is None.  On exit
    ``applied`` holds the applied premium at t, the scratch buffers (see
    `_scratch`) hold the net and gross premium and both cash flows of t
    before survival, premium - benefits - costs, and ``rs`` the reserve at
    t+1, which follows the uncapped recursion whatever the cap.  The
    caller weighs a flow by the policy's ``surv2[t]``, a scalar, once it
    has summed the flow over the paths.
    """
    fo, so, x = policy.fo, policy.so, policy.x0 + t
    net, gross, benefits, costs, cashflow, uncapped, passthrough = scratch
    # The in-place steps keep the order of operations of the formulas in
    # the comments, so every figure is bit for bit the formula's.  Each
    # division by a scalar is a multiplication by its reciprocal, rounded
    # once: over a path-length row it takes under half a division's time.
    # net = (im * A[x] - rs) * (1 / a[x]); gross = (net + ic * c1) * (1 / (1 - margin))
    np.multiply(im, fo.benefit_value[x], out=net)
    net -= rs
    net *= 1.0 / fo.annuity[x]
    np.multiply(ic, fo.c1, out=gross)
    np.add(net, gross, out=gross)
    gross *= 1.0 / (1.0 - fo.margin)
    # Second-order outgo, shared by the capped and the uncapped flow.
    np.multiply(im, so.k2[x], out=benefits)
    np.multiply(ic, so.c2, out=costs)
    if applied is None:
        _cashflow(gross, benefits, costs, out=cashflow)
    else:
        if t == 0:
            np.copyto(applied, gross)
        else:
            CapRule.apply(applied, gross, factor, passthrough)
        _cashflow(gross, benefits, costs, out=uncapped)
        _cashflow(applied, benefits, costs, out=cashflow)
    if t < policy.run_off:
        # Proposed (uncapped) net premium feeds the reserve: the cap's
        # foregone amount is topped up from the insurer's funds.
        # rs = (rs + net - im * k1[x]) * (1 + r) / (1 - q1[x])
        rs += net
        np.multiply(im, fo.k1[x], out=benefits)
        rs -= benefits
        rs *= (1.0 + fo.r_calc) / (1.0 - fo.q1[x])


def _cashflow(premium, benefits, costs, out: np.ndarray) -> np.ndarray:
    """premium - benefits - costs into ``out``: insurer income positive, before survival."""
    np.subtract(premium, benefits, out=out)
    out -= costs
    return out


def _project_one(
    policy: PolicyData, im: np.ndarray, ic: np.ndarray, cap: Optional[CapRule], real_rate: bool = False
) -> ProjectionResult:
    """Step the kernel along one validated inflation path and stack its dates.

    With ``real_rate`` the reserve rolled up to t+1 gains the factor
    im[t+1] / im[t], which makes the technical rate a real rate.
    """
    scratch = _scratch(1, cap is not None)
    net, gross, _, _, cashflow, uncapped, _ = scratch
    rs = np.full(1, policy.rs0)
    applied = None if cap is None else np.empty(1)
    factor = np.empty(1)
    surv2 = policy.surv2
    rows = np.empty((6, policy.run_off + 1))
    for t in range(policy.run_off + 1):
        reserve = rs[0]
        if cap is not None and t > 0:
            cap.allowed_factor(ic[t - 1 : t], ic[t : t + 1], out=factor)
        _step(policy, t, im[t : t + 1], ic[t : t + 1], factor, rs, applied, scratch)
        if real_rate and t < policy.run_off:
            rs *= im[t + 1] / im[t]
        shown = gross if applied is None else applied
        rows[:, t] = net[0], gross[0], shown[0], reserve, cashflow[0] * surv2[t], uncapped[0] * surv2[t]
    net, gross, applied, reserves, cashflow, uncapped = rows
    if not (np.all(np.isfinite(cashflow)) and np.all(np.isfinite(uncapped))):
        raise ValueError(f"policy {policy.id!r}: projection produced non-finite values")
    paid_net = net if cap is None else applied * (1.0 - policy.fo.margin) - ic * policy.fo.c1
    return ProjectionResult(
        paid_net,
        applied,
        reserves,
        cashflow,
        negative_premium=bool(np.any(net < 0.0)),
        cap_bound=bool(np.any((applied < gross) & (surv2 > 0.0))),
    )


def project(
    policy: PolicyData,
    i_med,
    i_cost,
    cap: Optional[CapRule] = None,
) -> ProjectionResult:
    """Project premiums, reserves and cash flow along one inflation path.

    ``i_med`` and ``i_cost`` are 1-D index levels at t = 0..run_off (at
    least), both 1 at the valuation date.  With a cap, premium entries are
    the applied ones while reserves follow the uncapped recursion (the
    foregone net premium is added back each capped year).
    """
    im = _check_inflation(i_med, policy.run_off, "i_med")
    ic = _check_inflation(i_cost, policy.run_off, "i_cost")
    return _project_one(policy, im, ic, cap)


def project_real_rate(policy: PolicyData, i_med) -> ProjectionResult:
    """Projection with the technical rate treated as a real rate.

    The reserve roll-up gains a factor i_med[t+1]/i_med[t], which makes
    net premiums track the index exactly: P[t] = i_med[t] * P[0].  That
    identity is verified here and its failure raises (it signals a
    numerically hostile basis).  The cost index is taken equal to the
    medical index for the gross figures.
    """
    im = _check_inflation(i_med, policy.run_off, "i_med")
    result = _project_one(policy, im, im, cap=None, real_rate=True)
    p = result.premiums_net
    scale = max(abs(p[0]), 1e-12)
    drift = np.max(np.abs(p - im * p[0])) / scale
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


#: Work, in path-dates (paths x the sum of run_off + 1 over the policies),
#: that each share must carry to repay its fork, so two shares start at
#: 6 M.  On a 2-vCPU VM one share against two took 31 and 48 ms at 1.4 M,
#: 49 and 50 ms at 2.75 M and 104 and 77 ms at 6.1 M (10 000 paths); at
#: 2000 paths two shares of 2.46 M took 85 ms against one's 71.
_SHARE_WORK = 3_000_000


def _share_bounds(portfolio: Sequence[PolicyData], n_paths: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) shares of the portfolio, of about equal work, at most one per CPU.

    A policy's work is n_paths * (run_off + 1).  There are as many
    shares as CPUs, but no more than policies, nor than leave each share
    ``_SHARE_WORK``.
    """
    cumulative = np.cumsum([p.run_off + 1 for p in portfolio])
    total = int(cumulative[-1]) if len(portfolio) else 0
    n = max(1, min(_cpus(), len(portfolio), n_paths * total // _SHARE_WORK))
    cuts = np.searchsorted(cumulative, np.arange(1, n) * (total / n), side="right")
    # A set, not np.unique, whose first call imports numpy.ma (about 1 MB).
    edges = sorted({0, *cuts.tolist(), len(portfolio)})
    return list(zip(edges, edges[1:])) or [(0, 0)]


def _simulate_share(
    share: Sequence[PolicyData],
    s: ScenarioSet,
    spread: InflationSpread,
    cap: Optional[CapRule],
    sums: np.ndarray,
) -> bool:
    """Each policy's discounted flow sums per date, for one contiguous share of a portfolio.

    ``sums`` is the share's slice of the portfolio's sums, (policies, 2,
    dates) under a cap and (policies, 1, dates) without one, written in
    place: ``sums[k, 0, t]`` becomes the sum over paths of policy k's
    discounted flow before survival at t, times its ``surv2[t]``,
    ``sums[k, 1, t]`` its uncapped one, and 0 past its run-off.  The
    slice is zeroed first, so a share stepped again overwrites whatever
    an earlier attempt left.  Returns whether the cap bound.

    The policies are taken in groups and each group walks the dates:
    date t's indices, weighted discount factors and cap factors are
    built once into path-length rows, then every live policy of the
    group steps through t.  A policy keeps only its reserve (and under a
    cap its applied premium) from one date to the next, so a group's
    state is at most one (paths x dates) array.
    """
    capped = cap is not None
    rows_per_policy = 2 if capped else 1
    sums.fill(0.0)
    bound = False
    n = s.n_paths
    im, ic, ic_prev, disc, factor = (np.empty(n) for _ in range(5))
    scratch = _scratch(n, capped)
    _, gross, _, _, cashflow, uncapped, _ = scratch
    # Each policy's state is one row, two under a cap: a group holds as
    # many policies as one (paths x dates) array has room for.
    size = max(1, (s.horizon + 1) // rows_per_policy)
    for start in range(0, len(share), size):
        group = share[start : start + size]
        state = np.empty((rows_per_policy, len(group), n))
        for rs, policy in zip(state[0], group):
            rs.fill(policy.rs0)
        applied = state[1] if capped else [None] * len(group)
        # (sums of the policy, policy, reserve, applied premium, survival
        # vector) of each running policy; the vector lives as long as the group.
        live = list(zip(sums[start:], group, state[0], applied, (policy.surv2 for policy in group)))
        for t in range(max(policy.run_off for policy in group) + 1):
            live = [member for member in live if member[1].run_off >= t]
            spread.index(s, "med", np.s_[:, t], out=im)
            ic, ic_prev = ic_prev, ic
            spread.index(s, "cost", np.s_[:, t], out=ic)
            np.divide(s.weights, s.bn[:, t], out=disc)
            if capped and t > 0:
                cap.allowed_factor(ic_prev, ic, out=factor)
            for policy_sums, policy, rs, premium, surv2 in live:
                _step(policy, t, im, ic, factor, rs, premium, scratch)
                # Survival is one scalar per date, so it weighs the sum.
                # einsum sums over the paths without BLAS, whose dot
                # product's bits follow its thread count.
                policy_sums[0, t] = np.einsum("k,k->", disc, cashflow) * surv2[t]
                if capped:
                    policy_sums[1, t] = np.einsum("k,k->", disc, uncapped) * surv2[t]
                    bound = bound or (surv2[t] > 0.0 and bool(np.any(premium < gross)))
        # Release this group's state, and every view of it, before the
        # next group allocates its own.
        del state, applied, live, rs, premium
    return bound


def _in_shares(step, n_shares: int) -> None:
    """``step(k)`` for every share k < n_shares: the first here, each other in a forked child.

    A child ends with ``os._exit(0)`` once its share is stepped, or with
    status 1 if ``step`` raised.  Once this process has stepped share 0
    it reaps the children in order and steps again any share that its
    child did not finish, or that had no child because ``os.fork``
    failed.  So an exception in a share is raised here as it was raised
    in the child, and a child killed from outside costs only time.
    Whether the call returns or raises, every child has been reaped (and
    killed first if still running) when it ends.
    """
    children = []
    try:
        for k in range(1, n_shares):
            try:
                pid = os.fork()
            except OSError:
                pid = None
            if pid == 0:
                status = 1
                try:
                    step(k)
                    status = 0
                finally:
                    os._exit(status)
            children.append((k, pid))
        step(0)
        while children:
            k, pid = children[0]
            status = 1 if pid is None else os.waitpid(pid, 0)[1]
            del children[0]
            if status != 0:
                step(k)
    finally:
        for _, pid in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def simulate_portfolio(
    portfolio: Sequence[PolicyData],
    s: ScenarioSet,
    spread: InflationSpread = InflationSpread(),
    cap: Optional[CapRule] = None,
) -> SimulationResult:
    """Value a portfolio by tracking every policy along every path.

    BE = -sum_k w_k sum_policies sum_t CF[t](path k) / bn_k[t].  This is
    the reference route the coefficient decomposition is tested against,
    and the only route that supports premium caps.  Under a cap each
    policy is still projected once; the same pass gives ``.uncapped``.

    The portfolio is cut into contiguous shares of about equal work
    (paths x the sum of run_off + 1): one per CPU in the process's
    affinity mask, but no more than leave each share ``_SHARE_WORK``, so
    a small portfolio is one share.  The policies' per-date sums and a
    cap-bound flag per share live in one anonymous shared ``mmap``.  This
    process steps the first share (`_simulate_share`); on Linux a child
    made by ``os.fork`` steps each other one, writing its sums into the
    mapping.  A share whose child did not finish, because it raised, was
    killed or could not be forked, is stepped again in this process with
    the same bits, so its exception is raised here (`_in_shares`).  ``per_t`` then
    subtracts the sums policy by policy in portfolio order: the
    operations of a one-process pass in the same order, so every figure
    has the same bits whatever the number of shares.  No returned array
    is a view of the mapping, and no child outlives the call, whether it
    returns or raises.  A non-finite figure names the first policy, in
    portfolio order, whose sums spoil a running total.
    """
    horizon = max((p.run_off for p in portfolio), default=0)
    for p in portfolio:
        if p.run_off > s.horizon:
            raise ValueError(
                f"policy {p.id!r} runs {p.run_off} years but scenarios stop at {s.horizon}"
            )
    bounds = _share_bounds(portfolio, s.n_paths)
    shape = (len(portfolio), 1 if cap is None else 2, horizon + 1)
    # The sums and one cap-bound flag per share, in memory that the
    # forked children write into as well; it is unmapped with its last
    # view, when the call ends.
    shared = mmap.mmap(-1, 8 * (math.prod(shape) + len(bounds)))
    sums = np.ndarray(shape, buffer=shared)
    bound = np.ndarray(len(bounds), buffer=shared, offset=sums.nbytes)

    def step(k: int) -> None:
        start, stop = bounds[k]
        bound[k] = _simulate_share(portfolio[start:stop], s, spread, cap, sums[start:stop])

    _in_shares(step, len(bounds))
    totals = np.zeros(sums.shape[1:])
    for policy_sums in sums:
        totals -= policy_sums
    if not np.all(np.isfinite(totals)):
        # A non-finite total stays so, so replaying the sums finds the
        # first policy in portfolio order to spoil one.
        totals[:] = 0.0
        for policy, policy_sums in zip(portfolio, sums):
            totals -= policy_sums
            if not np.all(np.isfinite(totals)):
                raise ValueError(f"policy {policy.id!r}: projection produced non-finite values")
    per_t = totals[0]
    uncapped_result = None if cap is None else SimulationResult(float(totals[1].sum()), totals[1], False)
    return SimulationResult(be=float(per_t.sum()), per_t=per_t, cap_bound=bool(bound.any()), uncapped=uncapped_result)
