"""The paper's primary contribution: non-uniform PWL approximation.

``PiecewiseLinear`` is the interpolation model of Section IV;
``FlexSfuFitter`` implements the Adam + removal/insertion optimization
strategy; ``uniform_pwl`` and friends are the baselines it is compared
against; ``build_tables`` lowers a fitted PWL into the quantised tables
the hardware consumes.

Every public name loads its submodule on first access (see
:mod:`repro`), so a process that only reads cached fits never imports
the lane kernel or the hardware tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
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

#: Public name -> defining submodule.
_LAZY = {
    **dict.fromkeys(("CachedFit", "FitCache", "FitJob", "default_cache",
                     "fit_cache_key", "make_job"), "batchfit"),
    **dict.fromkeys(("ASYMPTOTE", "CLAMP", "FREE", "BoundarySpec",
                     "SidePolicy"), "boundary"),
    **dict.fromkeys(("FitConfig", "FitResult", "FlexSfuFitter"), "fit"),
    **dict.fromkeys(("LaneTask", "fit_lanes", "lane_group_key"), "lanefit"),
    **dict.fromkeys(("GridGradients", "GridLoss", "LaneGridLoss",
                     "max_abs_error", "quadrature_aae", "quadrature_mse",
                     "segment_sq_integrals"), "loss"),
    **dict.fromkeys(("ApproxMetrics", "evaluate"), "metrics"),
    "PiecewiseLinear": "pwl",
    **dict.fromkeys(("HardwareTables", "build_tables", "format_kind",
                     "next_pow2"), "tables"),
    **dict.fromkeys(("LutOnlyApproximation", "msb_indexed_pwl",
                     "uniform_pwl"), "uniform"),
}

__getattr__, __dir__ = _lazy_exports(__name__, _LAZY)

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
