"""The paper's primary contribution: non-uniform PWL approximation.

``PiecewiseLinear`` is the interpolation model of Section IV;
``FlexSfuFitter`` implements the Adam + removal/insertion optimization
strategy; ``uniform_pwl`` and friends are the baselines it is compared
against; ``build_tables`` lowers a fitted PWL into the quantised tables
the hardware consumes.
"""

from .batchfit import (
    CachedFit,
    FitCache,
    FitJob,
    default_cache,
    fit_cache_key,
    make_job,
)
from .boundary import ASYMPTOTE, CLAMP, FREE, BoundarySpec, SidePolicy
from .fit import FitConfig, FitResult, FlexSfuFitter
from .lanefit import LaneTask, fit_lanes, lane_group_key
from .loss import (
    GridGradients,
    GridLoss,
    LaneGridLoss,
    max_abs_error,
    quadrature_aae,
    quadrature_mse,
    segment_sq_integrals,
)
from .metrics import ApproxMetrics, evaluate
from .pwl import PiecewiseLinear
from .tables import HardwareTables, build_tables, format_kind, next_pow2
from .uniform import LutOnlyApproximation, msb_indexed_pwl, uniform_pwl

__all__ = [
    "PiecewiseLinear",
    "FlexSfuFitter",
    "FitConfig",
    "FitResult",
    "FitJob",
    "FitCache",
    "CachedFit",
    "default_cache",
    "fit_cache_key",
    "make_job",
    "GridLoss",
    "GridGradients",
    "LaneGridLoss",
    "LaneTask",
    "fit_lanes",
    "lane_group_key",
    "quadrature_mse",
    "quadrature_aae",
    "max_abs_error",
    "segment_sq_integrals",
    "ApproxMetrics",
    "evaluate",
    "uniform_pwl",
    "msb_indexed_pwl",
    "LutOnlyApproximation",
    "BoundarySpec",
    "SidePolicy",
    "ASYMPTOTE",
    "FREE",
    "CLAMP",
    "HardwareTables",
    "build_tables",
    "next_pow2",
    "format_kind",
]
