"""Benchmark harness: decomposition route vs brute force as N grows.

Values N cloned policies against one sampled scenario set.  The
decomposition route is timed end to end from cached per-policy
coefficient triangles: aggregate the N triangles, price the building
blocks (cost independent of N), assemble the Best Estimate.  The
brute-force route re-projects every policy along every path, so its cost
grows linearly in N; the default N ladder for it stops earlier for that
exact reason (pass ``full=True`` to push it to the top anyway).
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

from . import fixtures
from .decomposition import aggregate_triangles, be_from_blocks, gross_coefficients
from .esg import McModelParams, mc_model
from .policy_engine import PolicyData, simulate_portfolio
from .pricing import building_blocks
from .term_structures import InflationSpread, ScenarioSet

DECOMPOSITION_N = (100, 1_000, 10_000)
ORACLE_N = (100, 400)


@dataclass(frozen=True)
class BenchmarkRow:
    route: str
    n_policies: int
    seconds: float
    be: float


@dataclass(frozen=True)
class BenchmarkResult:
    rows: tuple[BenchmarkRow, ...]

    def times(self, route: str) -> dict[int, float]:
        return {row.n_policies: row.seconds for row in self.rows if row.route == route}

    @property
    def decomposition_ratio(self) -> float:
        """Wall-time ratio between the largest and smallest decomposition N."""
        times = self.times("decomposition")
        return times[max(times)] / times[min(times)]

    @property
    def oracle_ratio(self) -> float:
        """Wall-time ratio between the largest and smallest brute-force N."""
        times = self.times("oracle")
        return times[max(times)] / times[min(times)]


def benchmark_policy(run_off: int = 60) -> PolicyData:
    """Clone donor: inpatient tariff entered late enough to run off in `run_off` years."""
    x0 = fixtures.DEFAULT_TERMINAL_AGE - run_off
    return fixtures.inpatient_policy(x0, policy_id="benchmark")


def benchmark_scenarios(horizon: int = 60, n_paths: int = 10_000, seed: int = 2024) -> ScenarioSet:
    curve = fixtures.long_curve(horizon)
    return mc_model(curve, McModelParams(n_paths=n_paths, vol_n=0.015, vol_r=0.008, corr=0.25, seed=seed))


def run_benchmark(
    n_values: tuple[int, ...] = DECOMPOSITION_N,
    oracle_n_values: tuple[int, ...] = ORACLE_N,
    n_paths: int = 10_000,
    seed: int = 2024,
    full: bool = False,
) -> BenchmarkResult:
    policy = benchmark_policy()
    scenarios = benchmark_scenarios(policy.run_off, n_paths, seed)
    spread = InflationSpread(med_spread=0.01, cost_spread=0.0)
    if full:
        oracle_n_values = n_values

    rows: list[BenchmarkRow] = []

    # Coefficients are computed once per policy and cached; for clones the
    # cache holds N handles to one triangle, but aggregation still performs
    # the full N-fold summation.
    donor_triangle = gross_coefficients(policy)
    for n in n_values:
        cached = [donor_triangle] * n
        # Best of two samples; a single aggregation is fast enough for the
        # scheduler to distort.
        seconds, be = float("inf"), 0.0
        for _ in range(2):
            start = time.perf_counter()
            tri = aggregate_triangles(cached)
            blocks = building_blocks(scenarios, spread)
            be = be_from_blocks(tri, blocks)
            seconds = min(seconds, time.perf_counter() - start)
        rows.append(BenchmarkRow("decomposition", n, seconds, be))

    for n in oracle_n_values:
        portfolio = [policy] * n
        start = time.perf_counter()
        be = simulate_portfolio(portfolio, scenarios, spread).be
        rows.append(BenchmarkRow("oracle", n, time.perf_counter() - start, be))

    return BenchmarkResult(rows=tuple(rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Valuation scaling benchmark.")
    parser.add_argument("--paths", type=int, default=10_000, help="scenario count (default 10000)")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--full", action="store_true", help="run the brute-force route on the full N ladder too"
    )
    args = parser.parse_args(argv)
    result = run_benchmark(n_paths=args.paths, seed=args.seed, full=args.full)
    print(f"{'route':>15}  {'N':>7}  {'seconds':>10}  {'BE':>18}")
    for row in result.rows:
        print(f"{row.route:>15}  {row.n_policies:>7}  {row.seconds:>10.4f}  {row.be:>18.6f}")
    print(
        f"decomposition wall-time ratio (largest/smallest N): {result.decomposition_ratio:.2f}"
    )
    print(f"brute-force wall-time ratio (largest/smallest N): {result.oracle_ratio:.2f}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
