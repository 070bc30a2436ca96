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

Every name in ``__all__`` except the error types and ``__version__`` is
a lazy attribute (PEP 562): ``import repro`` loads only this module and
:mod:`repro.errors`, and ``repro.Session`` or ``repro.hw`` imports its
subpackage on first access.  A process that compiles and serves a graph
so loads the graph and serving tiers, not the experiment harness, the
hardware model or the fit daemon.
"""

from __future__ import annotations

import importlib
import sys
from typing import TYPE_CHECKING, Any, Callable, List, Mapping, Optional, \
    Tuple

from .errors import (
    CatalogError,
    FitError,
    FormatError,
    GraphError,
    HardwareError,
    ReproError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import analysis, api, core, functions, graph, hw, numerics, \
        optim, perf, zoo
    from . import eval as eval_
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
    from .hw import FlexSfuUnit, HwDataType

__version__ = "1.0.0"


def _lazy_exports(package: str, names: Mapping[str, str],
                  submodules: Optional[Mapping[str, str]] = None
                  ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a lazy package.

    ``names`` maps each public name to the submodule of ``package``
    that defines it; ``submodules`` maps names that are submodules
    themselves (``eval_`` -> ``eval``).  The first access imports the
    submodule and caches the value in the package's namespace, so
    later lookups never reach ``__getattr__``.
    """
    subs: Mapping[str, str] = submodules or {}

    def __getattr__(name: str) -> Any:
        if name in names:
            module = importlib.import_module(f".{names[name]}", package)
            value = getattr(module, name)
        elif name in subs:
            value = importlib.import_module(f".{subs[name]}", package)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(names)
                      | set(subs))

    return __getattr__, __dir__


_SUBMODULES = {
    **{name: name for name in ("analysis", "api", "core", "functions",
                               "graph", "hw", "numerics", "optim", "perf",
                               "zoo")},
    "eval_": "eval",  # "eval" shadows the builtin
}

_NAMES = {
    **dict.fromkeys(("Session", "EngineConfig", "FitRequest", "FitArtifact"),
                    "api"),
    **dict.fromkeys(("FlexSfuFitter", "FitConfig", "FitResult", "FitCache",
                     "make_job", "PiecewiseLinear", "uniform_pwl",
                     "evaluate", "build_tables"), "core"),
    **dict.fromkeys(("FlexSfuUnit", "HwDataType"), "hw"),
}

__getattr__, __dir__ = _lazy_exports(__name__, _NAMES, _SUBMODULES)

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
