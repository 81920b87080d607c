"""Shared generators, example data and paths for the test suite."""

import functools
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from healthval import CurvePair, FirstOrderBasis, PolicyData, ScenarioSet, SecondOrderBasis
from healthval.io_files import load_curve, load_portfolio

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

# Hypothesis imports its patch writer when it reports a failing example.
# That import pulls in libcst, which may raise a DeprecationWarning; with
# warnings as errors that would turn an ordinary test failure into an
# internal error that ends the run.  Import it once here, warning-free.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    assert FIXTURES.is_dir(), f"the shipped example inputs are missing: {FIXTURES}"
    return FIXTURES


# The shipped example contracts, read from fixtures/.  The toy contract
# runs three dates at a zero technical rate with one benefit of 30 at the
# last date and zero second-order benefits, so its premium path is
# P = (10, 15*i1 - 5, 30*i2 - 15*i1 - 5) and its cash flow is the premium
# leg.  The inpatient tariff is synthetic (benefits rising with age, high
# early lapse, old-age mortality).  Each file is read once; a helper
# varies the loaded policy or basis with dataclasses.replace.


@functools.cache
def _shipped_policy(tariff: str) -> PolicyData:
    return load_portfolio(FIXTURES / f"portfolio_{tariff}.csv", FIXTURES / "tables")[0]


def toy_policy(rs0: float = 0.0) -> PolicyData:
    return replace(_shipped_policy("toy"), rs0=rs0)


def toy_first_order() -> FirstOrderBasis:
    return _shipped_policy("toy").fo


@functools.cache
def toy_curve() -> CurvePair:
    return load_curve(FIXTURES / "curves_toy.csv")


def flat_curve(horizon: int, nominal_rate: float, real_rate: float) -> CurvePair:
    """Flat-rate curve pair: p[t] = (1 + rate)^-t."""
    t = np.arange(horizon + 1)
    return CurvePair(pn=(1.0 + nominal_rate) ** -t, pr=(1.0 + real_rate) ** -t)


def long_curve(horizon: int = 100) -> CurvePair:
    """The shipped curves_long.csv out to the given horizon: 2% nominal, 0.5% real."""
    return flat_curve(horizon, 0.02, 0.005)


def inpatient_first_order(r_calc: float = 0.01) -> FirstOrderBasis:
    return replace(_shipped_policy("inpatient").fo, r_calc=r_calc)


def inpatient_second_order() -> SecondOrderBasis:
    return _shipped_policy("inpatient").so


def inpatient_policy(x0: int, rs0: float = 0.0, policy_id: str = "") -> PolicyData:
    return replace(_shipped_policy("inpatient"), x0=x0, rs0=rs0, id=policy_id or f"inpatient-{x0}")


def random_curve(rng: np.random.Generator, horizon: int):
    """Strictly positive ZCB curve pair with mild random year-over-year moves."""
    steps_n = rng.uniform(0.92, 1.04, horizon)
    steps_r = rng.uniform(0.95, 1.03, horizon)
    pn = np.concatenate([[1.0], np.cumprod(steps_n)])
    pr = np.concatenate([[1.0], np.cumprod(steps_r)])
    return CurvePair(pn=pn, pr=pr)


def random_scenario_set(rng: np.random.Generator, horizon: int, n_paths: int) -> ScenarioSet:
    """Arbitrary weighted positive paths; not calibrated to any curve."""
    bn = np.exp(np.cumsum(rng.normal(0.01, 0.08, (n_paths, horizon)), axis=1))
    br = np.exp(np.cumsum(rng.normal(0.005, 0.05, (n_paths, horizon)), axis=1))
    bn = np.hstack([np.ones((n_paths, 1)), bn])
    br = np.hstack([np.ones((n_paths, 1)), br])
    weights = rng.uniform(0.2, 1.0, n_paths)
    return ScenarioSet(bn=bn, br=br, weights=weights / weights.sum())


def random_basis_pair(rng: np.random.Generator, omega: int, q_max: float = 0.5):
    q1 = rng.uniform(0.05, q_max, omega + 1)
    q1[-1] = 1.0
    fo = FirstOrderBasis(
        k1=rng.uniform(0.0, 100.0, omega + 1),
        q1=q1,
        r_calc=float(rng.uniform(-0.005, 0.04)),
        c1=float(rng.uniform(0.0, 10.0)),
        margin=float(rng.uniform(0.0, 0.3)),
    )
    q2 = np.minimum(q1 * rng.uniform(0.7, 1.3, omega + 1), 1.0)
    q2[-1] = 1.0
    so = SecondOrderBasis(
        k2=rng.uniform(0.0, 100.0, omega + 1),
        q2=q2,
        c2=float(rng.uniform(0.0, 10.0)),
    )
    return fo, so


def random_policy(
    rng: np.random.Generator,
    max_run_off: int,
    policy_id: str = "",
    seasoned: bool = True,
) -> PolicyData:
    run_off = int(rng.integers(1, max_run_off + 1))
    omega = run_off + int(rng.integers(0, 4))
    fo, so = random_basis_pair(rng, omega)
    x0 = omega - run_off
    rs0 = float(rng.uniform(0.0, 50.0)) if seasoned else 0.0
    return PolicyData(x0=x0, fo=fo, so=so, rs0=rs0, id=policy_id or f"rand-{run_off}")


def random_inflation_path(rng: np.random.Generator, horizon: int) -> np.ndarray:
    path = np.concatenate([[1.0], np.cumprod(rng.uniform(0.9, 1.12, horizon))])
    return path


def traced_peak(call) -> int:
    """Bytes ``call()`` holds at its peak above what was allocated before it, by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def run_script(script: str, *args: str, timeout: float = 120.0, **env: str) -> str:
    """Stdout of ``script`` (dedented) run by a fresh interpreter with ``args``.

    The interpreter imports healthval from this checkout and this
    directory's modules, such as conftest; ``env`` adds environment
    variables.  It must exit 0 within ``timeout`` seconds, or the call
    raises (a hang is killed rather than waited out).
    """
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), str(here), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout
