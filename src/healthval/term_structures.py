"""Current market term structures and joint nominal/real scenario paths.

Conventions used throughout the engine:

- Time is discrete and annual, t = 0..T.  No interpolation, no day counts:
  inputs must supply every integer maturity.
- Curves are zero-coupon bond *prices* (discount factors), not rates.
  ``pn[t]`` is the nominal price today of one nominal unit at t, ``pr[t]``
  the real analogue.  Negative rates are allowed; prices only need to be
  strictly positive, with ``pn[0] == pr[0] == 1`` exactly.
- A scenario path carries the two money-market accounts ``bn`` and ``br``
  (value at t of rolling one unit at the one-year forward rates).  The
  inflation index is their ratio, ``i[t] = bn[t] / br[t]``, i.e. the
  exchange rate between the nominal and the real "currency".
- The medical and cost payment indices are that index times a
  deterministic spread factor.  A scenario set stores only the accounts
  and checks at construction that their ratio is finite; the index is
  derived only through :meth:`InflationSpread.index`, one payment index
  at a time, into a buffer its caller owns.

All types are immutable after construction and all operations are pure,
so everything here can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


def _readonly(values, name: str, ndim: int = 1) -> np.ndarray:
    """Read-only float64 array of ``ndim`` dimensions, rejecting non-finite entries.

    Adoption rule: a float64 ndarray that owns its data and is already
    read-only is taken as it is, because its maker has given up writing
    to it (``esg.mc_model`` hands over its accounts this way).  Anything
    else is copied: a writable array, a view of any base, a list.  So a
    caller's later writes to its own array never reach the result.  The
    checks run either way.
    """
    adopt = (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.flags.owndata
        and not values.flags.writeable
    )
    arr = values if adopt else np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


# Byte budget of one block of rows.  The Monte-Carlo sampler and the
# scenario set's quotient check walk their (paths x dates) arrays in row
# blocks of about this size, so their temporaries stay this small
# whatever the number of paths.
_BLOCK_BYTES = 1 << 18


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive slices covering the rows of an (n_rows, n_cols) float64 array.

    Each block holds as many rows as fit in ``_BLOCK_BYTES``, and at
    least one; only the last block may be shorter.
    """
    step = max(1, _BLOCK_BYTES // (8 * n_cols))
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


@dataclass(frozen=True, eq=False)
class CurvePair:
    """Current nominal and real ZCB price term structures out to horizon T.

    ``pn[t]`` and ``pr[t]`` for t = 0..T; both start at exactly 1 and stay
    strictly positive, small enough above 0 that 1/p (the deterministic
    account) is finite.  No monotonicity is required (negative rates are
    fine).
    """

    pn: np.ndarray
    pr: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pn", _readonly(self.pn, "pn"))
        object.__setattr__(self, "pr", _readonly(self.pr, "pr"))
        if len(self.pn) != len(self.pr):
            raise ValueError(
                f"curve length mismatch: pn has {len(self.pn)} points, pr has {len(self.pr)}"
            )
        if len(self.pn) < 2:
            raise ValueError("curve needs at least maturities t = 0 and t = 1")
        if self.pn[0] != 1.0 or self.pr[0] != 1.0:
            raise ValueError("pn[0] and pr[0] must equal 1 exactly")
        if np.any(self.pn <= 0.0) or np.any(self.pr <= 0.0):
            raise ValueError("ZCB prices must be strictly positive")
        with np.errstate(over="ignore"):
            if np.any(np.isinf(1.0 / self.pn)) or np.any(np.isinf(1.0 / self.pr)):
                raise ValueError("ZCB prices must have a finite reciprocal")

    @property
    def horizon(self) -> int:
        return len(self.pn) - 1


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Finite weighted set of joint scenario paths.

    Stored stacked ((n_paths, T+1) arrays, one row per path) so pricing
    can run as matrix arithmetic.  Weights are strictly positive and sum
    to 1 within 1e-12.  ``sampled`` marks equal-weight Monte-Carlo
    output, for which standard errors are meaningful.

    ``bn``, ``br`` and ``weights`` follow the adoption rule of
    :func:`_readonly`: a read-only float64 array that owns its data is
    kept without a copy, any other input is copied, and every check runs
    on both.  The index ``i = bn / br`` is not stored: construction checks
    that the quotient is finite one block of rows at a time (see
    ``_row_blocks``), so the check's temporary is one block, not a third
    full-size array, and each payment index is built from the accounts by
    :meth:`InflationSpread.index`.
    """

    bn: np.ndarray
    br: np.ndarray
    weights: np.ndarray
    sampled: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "bn", _readonly(self.bn, "bn", ndim=2))
        object.__setattr__(self, "br", _readonly(self.br, "br", ndim=2))
        object.__setattr__(self, "weights", _readonly(self.weights, "weights"))
        if self.bn.shape != self.br.shape:
            raise ValueError("bn and br must have identical shapes")
        if self.bn.shape[0] != len(self.weights):
            raise ValueError("one weight per path required")
        if self.bn.shape[0] < 1:
            raise ValueError("scenario set must contain at least one path")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be strictly positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {self.weights.sum()!r}")
        if np.any(self.bn <= 0.0) or np.any(self.br <= 0.0):
            raise ValueError("money-market accounts must be strictly positive")
        if np.any(self.bn[:, 0] != 1.0) or np.any(self.br[:, 0] != 1.0):
            raise ValueError("every path must start with bn[0] = br[0] = 1")
        with np.errstate(over="ignore"):
            for rows in _row_blocks(*self.bn.shape):
                if not np.all(np.isfinite(self.bn[rows] / self.br[rows])):
                    raise ValueError("i contains non-finite entries")

    @property
    def n_paths(self) -> int:
        return self.bn.shape[0]

    @property
    def horizon(self) -> int:
        return self.bn.shape[1] - 1


@dataclass(frozen=True)
class InflationSpread:
    """Deterministic per-year multiplicative spreads on the modeled index.

    The medical and cost indices are the modeled index times a spread
    factor, the smallest mechanism that lets benefit and cost inflation
    differ without a second stochastic factor:

        i_med[t] = i[t] * (1 + med_spread)^t,   i_cost analogously.
    """

    med_spread: float = 0.0
    cost_spread: float = 0.0

    def __post_init__(self) -> None:
        if not (self.med_spread > -1.0 and self.cost_spread > -1.0):
            raise ValueError("spreads must exceed -1")

    def index(
        self, s: ScenarioSet, which: str, out: Optional[np.ndarray] = None, t: Optional[int] = None
    ) -> np.ndarray:
        """The ``"med"`` or ``"cost"`` index of every path of ``s``, written into ``out``.

        Without a date ``t``, ``out`` is shaped like ``s.bn``; with one it
        holds every path's level at t.  Without ``out`` a new array is
        made.  Each level is the quotient ``bn / br`` rounded, then times
        ``(1 + spread)^t`` rounded, so a date's row holds the bits of that
        date's column of the whole index.
        """
        rate = {"med": self.med_spread, "cost": self.cost_spread}[which]
        factor = (1.0 + rate) ** np.arange(s.horizon + 1)
        bn, br = (s.bn, s.br) if t is None else (s.bn[:, t], s.br[:, t])
        if out is None:
            out = np.empty(bn.shape)
        np.divide(bn, br, out=out)
        out *= factor if t is None else factor[t]
        return out


def implied_forwards(curve: CurvePair) -> tuple[np.ndarray, np.ndarray]:
    """One-year forward rates implied by the curve pair.

    F[t] = p[t]/p[t+1] - 1 for t = 0..T-1 (annual compounding), so that
    rolling an account at these forwards reproduces 1/p[t].
    """
    fn = curve.pn[:-1] / curve.pn[1:] - 1.0
    fr = curve.pr[:-1] / curve.pr[1:] - 1.0
    return fn, fr
