"""Optimizing compiler passes for compiled graph programs.

An ordered, named pass framework that
:func:`repro.graph.program.compile_graph` runs between scheduling and
kernel baking when called with ``optimize=True``.  See
:mod:`repro.graph.opt.pipeline` for the framework and
:mod:`repro.graph.opt.passes` for the four built-in passes
(constant folding, dead-node elimination, kernel fusion, and the
dependence-level reorder).
"""

from .pipeline import (DEFAULT_PASSES, Pass, PassPipeline, PassReport,
                       Plan, available_passes, build_pipeline, get_pass,
                       register_graph_pass)
from .passes import (EPILOGUE_OPS, ConstantFolding, DeadNodeElimination,
                     KernelFusion, RegionScheduler)

__all__ = [
    "DEFAULT_PASSES",
    "EPILOGUE_OPS",
    "ConstantFolding",
    "DeadNodeElimination",
    "KernelFusion",
    "Pass",
    "PassPipeline",
    "PassReport",
    "Plan",
    "RegionScheduler",
    "available_passes",
    "build_pipeline",
    "get_pass",
    "register_graph_pass",
]
