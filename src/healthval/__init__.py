"""Market-consistent valuation of lifelong health insurance liabilities.

The Best Estimate of a portfolio is computed two independent ways: by
brute-force simulation of every policy along every economic scenario,
and by a static coefficient decomposition whose Monte-Carlo cost does
not grow with the portfolio.  Scenario models for the joint nominal/real
term structures (and hence the inflation index, their ratio) are
calibrated exactly to the current curve pair.
"""

from .term_structures import CurvePair, InflationSpread, ScenarioSet, implied_forwards
from .esg import (
    CalibrationReport,
    McModelParams,
    TwoScenarioParams,
    calibration_check,
    delayed_inflation_factor,
    deterministic_model,
    mc_model,
    two_scenario_model,
)
from .policy_engine import (
    CapRule,
    FirstOrderBasis,
    PolicyData,
    ProjectionResult,
    SecondOrderBasis,
    SimulationResult,
    first_order_pv,
    project,
    project_real_rate,
    simulate_portfolio,
)
from .decomposition import (
    CoefficientTriangle,
    aggregate,
    aggregate_triangles,
    be_from_blocks,
    gross_coefficients,
)
from .pricing import (
    BuildingBlockMatrix,
    ValuationReport,
    be_report,
    building_blocks,
)

__version__ = "0.1.0"

__all__ = [
    "CurvePair",
    "InflationSpread",
    "ScenarioSet",
    "implied_forwards",
    "CalibrationReport",
    "McModelParams",
    "TwoScenarioParams",
    "calibration_check",
    "delayed_inflation_factor",
    "deterministic_model",
    "mc_model",
    "two_scenario_model",
    "CapRule",
    "FirstOrderBasis",
    "PolicyData",
    "ProjectionResult",
    "SecondOrderBasis",
    "SimulationResult",
    "first_order_pv",
    "project",
    "project_real_rate",
    "simulate_portfolio",
    "CoefficientTriangle",
    "aggregate",
    "aggregate_triangles",
    "be_from_blocks",
    "gross_coefficients",
    "BuildingBlockMatrix",
    "ValuationReport",
    "be_report",
    "building_blocks",
    "__version__",
]
