"""Name-based registry of activation functions.

The zoo catalog, the graph IR and the experiment harness all refer to
activation functions by name; this registry is the single source of truth
mapping those names to :class:`~repro.functions.base.ActivationFunction`
instances.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

import numpy as np

from ..errors import ReproError
from .analytic import ANALYTIC_FUNCTIONS
from .base import ActivationFunction, estimate_asymptote, numeric_derivative
from .piecewise import PIECEWISE_FUNCTIONS

_REGISTRY: Dict[str, ActivationFunction] = {}


def register(fn: ActivationFunction, overwrite: bool = False) -> ActivationFunction:
    """Add a function to the registry; returns it for chaining."""
    if fn.name in _REGISTRY and not overwrite:
        raise ReproError(f"activation {fn.name!r} already registered")
    _REGISTRY[fn.name] = fn
    return fn


def get(name: str) -> ActivationFunction:
    """Look up a registered activation by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown activation {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def available() -> Iterable[str]:
    """Sorted names of every registered activation."""
    return sorted(_REGISTRY)


def make_custom(name: str, fn: Callable[[np.ndarray], np.ndarray],
                derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                interval: Optional[tuple] = None,
                vpu_ops: int = 8,
                register_fn: bool = True) -> ActivationFunction:
    """Build (and by default register) a user-defined activation.

    Derivative defaults to a central difference; asymptotes are estimated
    numerically (Section IV's boundary conditions need them — a side
    without a detectable asymptote is fitted with a free edge slope).

    With ``register_fn=False`` the activation stays out of the registry —
    useful for throwaway functions that travel to the fit service as a
    sampled :class:`~repro.service.spec.FunctionSpec` instead of a name
    (worker processes never see this process's registrations anyway).
    """
    act = ActivationFunction(
        name=name,
        fn=lambda x: np.asarray(fn(np.asarray(x, dtype=np.float64)), dtype=np.float64),
        derivative=derivative or numeric_derivative(fn),
        left_asymptote=estimate_asymptote(fn, "left"),
        right_asymptote=estimate_asymptote(fn, "right"),
        default_interval=tuple(interval) if interval else (-8.0, 8.0),
        vpu_ops=vpu_ops,
        smooth=True,
    )
    if not register_fn:
        return act
    return register(act, overwrite=True)


#: Softmax's Flex-SFU-accelerated part is the exponentiation; the
#: max-subtract / sum / divide stay as vector ops (counted separately).
_SOFTMAX_EXP_OPS = 8

#: Target-VPU overrides: clip-based functions map onto fused min/max
#: vector instructions on the modelled accelerator, so they cost far
#: fewer issue slots than their generic arithmetic expansion.  This is
#: what keeps MobileNets near the bottom of Fig. 6 despite Hardswish
#: being "complex" in the accuracy analysis.
_VPU_NATIVE_OPS = {
    "relu": 1,
    "leaky_relu": 1,
    "relu6": 1,
    "hardtanh": 1,
    "hardsigmoid": 2,
    "hardswish": 2,
    "identity": 0,
}


def baseline_act_ops(fn_name: str) -> int:
    """Per-element operation count of ``fn_name`` on the baseline VPU.

    The Fig. 6 cost model (:mod:`repro.perf.costs`) prices activations
    with it, and the verifier's RPR124 asks it whether a compiled
    activation can be priced, so it lives here rather than in the
    cost model: checking a graph does not load the catalog.
    """
    if fn_name == "softmax":
        return _SOFTMAX_EXP_OPS
    if fn_name in _VPU_NATIVE_OPS:
        return _VPU_NATIVE_OPS[fn_name]
    return get(fn_name).vpu_ops


for _fn in ANALYTIC_FUNCTIONS + PIECEWISE_FUNCTIONS:
    register(_fn)

#: Names present in *every* process that imports this package — the only
#: names safe to ship across a process boundary as bare references.
#: Session registrations (``make_custom``) exist in one process only.
_BUILTIN_NAMES = frozenset(_REGISTRY)


def is_builtin(name: str) -> bool:
    """Whether ``name`` is an import-time registration (not session-added)."""
    return name in _BUILTIN_NAMES
