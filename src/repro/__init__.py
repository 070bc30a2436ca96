"""Flex-SFU: accelerating DNN activation functions by non-uniform
piecewise approximation.

A complete Python reproduction of the DAC 2023 paper by Reggiani, Andri
and Cavigelli: the MSE-optimal non-uniform PWL fitting algorithm
(:mod:`repro.core`), a bit-level model of the Flex-SFU hardware unit
(:mod:`repro.hw`), the ONNX-like graph substrate and activation-rewrite
pass (:mod:`repro.graph`), a synthetic model zoo (:mod:`repro.zoo`), the
end-to-end accelerator performance model (:mod:`repro.perf`) and the
experiment harness regenerating every table and figure
(:mod:`repro.eval`).

Quickstart::

    from repro.api import Session

    with Session() as s:                       # cached, engine="auto"
        art = s.fit_one("gelu", n_breakpoints=16)
    print(art.pwl.breakpoints)         # MSE-optimal knot locations
    y = art.pwl(x)                     # evaluate the approximation

:mod:`repro.api` is the one front door to the fitting subsystem; the
README's migration table maps the removed pre-``repro.api`` entry
points onto it.
"""

from . import analysis, api, core, functions, graph, hw, numerics, optim, \
    perf, zoo
from . import eval as eval_  # "eval" shadows the builtin; alias available
from .api import EngineConfig, FitArtifact, FitRequest, Session
from .core import (
    FitCache,
    FitConfig,
    FitResult,
    FlexSfuFitter,
    PiecewiseLinear,
    build_tables,
    evaluate,
    make_job,
    uniform_pwl,
)
from .errors import (
    CatalogError,
    FitError,
    FormatError,
    GraphError,
    HardwareError,
    ReproError,
)
from .hw import FlexSfuUnit, HwDataType

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "api",
    "core",
    "functions",
    "numerics",
    "optim",
    "hw",
    "graph",
    "zoo",
    "perf",
    "eval_",
    "Session",
    "EngineConfig",
    "FitRequest",
    "FitArtifact",
    "FlexSfuFitter",
    "FitConfig",
    "FitResult",
    "FitCache",
    "make_job",
    "PiecewiseLinear",
    "uniform_pwl",
    "evaluate",
    "build_tables",
    "FlexSfuUnit",
    "HwDataType",
    "ReproError",
    "FitError",
    "FormatError",
    "HardwareError",
    "GraphError",
    "CatalogError",
    "__version__",
]
