"""Graph rewrite passes — the Flex-SFU activation replacement.

The paper "replaces each activation function of the resulting model graph
with a custom ONNX operator" before compilation.  The same rewrite here:
:func:`replace_activations` switches every matching ``activation`` /
``softmax`` node to its PWL implementation, attaching the fitted
approximator.  Approximators are built by :func:`make_pwl_approximators`
and are exact for PWL-native functions like ReLU; expensive fits run
through a pass-level :class:`repro.api.Session` (:func:`pwl_for`), so
they are served from the persistent cache — seedable in parallel by any
other Session engine — with the cache's memory layer preserving object
identity for repeated lookups.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.batchfit import default_cache
# FlexSfuFitter is unused here since the Session migration but stays
# importable as `passes.FlexSfuFitter`: tests monkeypatch its `fit`
# through this module to assert cache hits never re-fit.
from ..core.fit import FitConfig, FlexSfuFitter  # noqa: F401
from ..core.pwl import PiecewiseLinear
from ..functions import registry as fn_registry
from ..functions.base import ActivationFunction
from ..functions.softmax import SoftmaxApproximator
from .ir import Graph

#: Lazily-built Session serving the pass-level fits.  Inline engine
#: with warm starts off: the pass layer historically cold-fits misses
#: one at a time, and keeping that behaviour means a cache entry is
#: identical whether this module or a cold batch sweep produced it.
#: Identity of repeated lookups is preserved by the cache's memory
#: layer (cleared via :func:`clear_fit_cache`).
_SESSION = None


def _session():
    from ..api import EngineConfig, Session

    global _SESSION
    if _SESSION is None:
        _SESSION = Session(EngineConfig(engine="inline", warm_start=False,
                                        warm_quality_factor=None))
    return _SESSION


def native_pwl(fn: ActivationFunction) -> Optional[PiecewiseLinear]:
    """Exact PWL for functions that *are* piecewise linear (ReLU & co).

    Returns ``None`` when the function is not exactly representable.
    Flex-SFU executes these losslessly — the reason ReLU-based models in
    Fig. 6 match baseline accuracy and performance.
    """
    knots = fn.exact_pwl_breakpoints
    if not knots or fn.left_asymptote is None or fn.right_asymptote is None:
        return None
    p = np.asarray(knots, dtype=np.float64)
    if p.size == 1:
        p = np.array([p[0], p[0] + 1.0])
    v = fn(p)
    return PiecewiseLinear.create(p, v, fn.left_asymptote[0], fn.right_asymptote[0])


def pwl_for(fn: ActivationFunction, n_breakpoints: int,
            interval: Optional[Tuple[float, float]] = None,
            config: Optional[FitConfig] = None,
            boundary: Tuple[str, str] = ("asymptote", "asymptote"),
            session=None) -> PiecewiseLinear:
    """Fit (or reuse) a PWL for ``fn`` at the given budget.

    A thin convenience over the pass-level :class:`~repro.api.Session`
    (or an explicit ``session`` — e.g. the one behind
    :meth:`repro.api.Session.compile`): served from the persistent
    on-disk cache (exact-PWL natives short-circuit without fitting), so
    fits survive across processes and batch sweeps can pre-seed the
    same keys through any Session engine.
    """
    s = session if session is not None else _session()
    return s.fit_one(fn, n_breakpoints, interval=interval,
                     config=config, boundary=tuple(boundary)).pwl


def make_pwl_approximators(function_names, n_breakpoints: int,
                           config: Optional[FitConfig] = None,
                           session=None
                           ) -> Dict[str, Callable[[np.ndarray], np.ndarray]]:
    """Fitted PWL evaluators for each named activation.

    The special name ``"softmax"`` yields a PWL of ``exp`` on the paper's
    ``[-10, 0.1]`` interval wrapped in the max-subtract decomposition.
    ``session`` routes the fits through an explicit
    :class:`~repro.api.Session` (otherwise the pass-level one serves
    them).
    """
    out: Dict[str, Callable[[np.ndarray], np.ndarray]] = {}
    for name in function_names:
        if name == "softmax":
            exp_pwl = pwl_for(fn_registry.get("exp"), n_breakpoints,
                              session=session)
            out[name] = SoftmaxApproximator(exp_pwl)
        else:
            out[name] = pwl_for(fn_registry.get(name), n_breakpoints,
                                config=config, session=session)
    return out


def collect_activation_names(graph: Graph) -> Dict[str, int]:
    """Histogram of activation/softmax node counts by function name."""
    counts: Dict[str, int] = {}
    for node in graph.nodes:
        if node.op_type == "activation":
            name = str(node.attrs.get("fn", ""))
            counts[name] = counts.get(name, 0) + 1
        elif node.op_type == "softmax":
            counts["softmax"] = counts.get("softmax", 0) + 1
    return counts


def replace_activations(graph: Graph,
                        approximators: Mapping[str, Callable],
                        ) -> Tuple[Graph, int]:
    """Clone ``graph`` with matching activation nodes rewired to PWL.

    ``approximators`` maps function names (plus optionally ``"softmax"``)
    to callables.  Softmax approximators must accept ``(x, axis=...)``.
    Returns the rewritten graph and the number of nodes replaced.
    """
    new = graph.clone()
    replaced = 0
    for node in new.nodes:
        if node.op_type == "activation":
            fn_name = str(node.attrs.get("fn", ""))
            approx = approximators.get(fn_name)
            if approx is not None:
                node.attrs["impl"] = "pwl"
                node.attrs["approximator"] = approx
                replaced += 1
        elif node.op_type == "softmax":
            approx = approximators.get("softmax")
            if approx is not None:
                node.attrs["impl"] = "pwl"
                node.attrs["approximator"] = approx
                replaced += 1
    return new, replaced


def restore_exact_activations(graph: Graph) -> Graph:
    """Inverse of :func:`replace_activations` (drops approximators)."""
    new = graph.clone()
    for node in new.nodes:
        if node.op_type in ("activation", "softmax") and \
                node.attrs.get("impl") == "pwl":
            node.attrs["impl"] = "exact"
            node.attrs.pop("approximator", None)
    return new


def clear_fit_cache(disk: bool = False) -> None:
    """Drop the in-process fit layer (tests use this for isolation).

    The identity layer is the default cache's in-memory tier (the
    Session reads through it); ``disk=True`` also wipes the persistent
    cache directory, forcing genuine refits rather than disk reloads.
    """
    if disk:
        default_cache().clear()
    else:
        default_cache().clear(memory_only=True)
