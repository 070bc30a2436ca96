"""The canonical fit request: one construction path for every caller.

``FitRequest.create`` is the single place a (function, budget,
interval, boundary, config) bundle becomes a fully-resolved,
cache-keyed request (it wraps :func:`~repro.core.batchfit.make_job`).
A request is transport-agnostic: the same object fits inline, through
the lane kernel, on a process pool, or via the daemon queue — unregistered activations ride along as
sampled :class:`~repro.service.spec.FunctionSpec` s exactly as jobs
always did, because a request *is* a :class:`~repro.core.batchfit.FitJob`
plus the API contract around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from ..core.batchfit import (FitJob, fit_cache_key, job_from_dict,
                             job_to_dict, make_job, resolve_function)
from ..core.fit import FitConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..functions.base import ActivationFunction
    from ..service.spec import FunctionSpec


@dataclass(frozen=True)
class FitRequest:
    """One fully-resolved fitting task: function identity plus config.

    Build instances with :meth:`create`, which folds budget / interval /
    boundary overrides into the config, resolves a ``None`` interval to
    the function's default, and captures unregistered activations as
    sampled specs — so equivalent requests always land on the same
    cache key, whatever form the caller held the function in.
    """

    function: str
    config: FitConfig
    spec: Optional["FunctionSpec"] = None

    @classmethod
    def create(cls, fn: Union[str, "ActivationFunction", "FunctionSpec"],
               n_breakpoints: int = 16,
               interval: Optional[Tuple[float, float]] = None,
               config: Optional[FitConfig] = None,
               boundary: Optional[Tuple[str, str]] = None) -> "FitRequest":
        """Canonicalise a fit request (the one construction path).

        ``fn`` may be a registry name, an
        :class:`~repro.functions.base.ActivationFunction`, or a
        :class:`~repro.service.spec.FunctionSpec`.
        """
        return cls.from_job(make_job(fn, n_breakpoints, interval=interval,
                                     config=config, boundary=boundary))

    @classmethod
    def from_job(cls, job: FitJob) -> "FitRequest":
        """Adopt a legacy :class:`FitJob` (already canonical)."""
        return cls(function=job.function, config=job.config, spec=job.spec)

    @property
    def job(self) -> FitJob:
        """The legacy :class:`FitJob` twin (queue / cache wire type)."""
        return FitJob(function=self.function, config=self.config,
                      spec=self.spec)

    @property
    def key(self) -> str:
        """The request's fit-cache key (stable content hash)."""
        return fit_cache_key(self.job)

    def resolve(self) -> "ActivationFunction":
        """Rebuild the target function in *this* process."""
        return resolve_function(self.job)

    def to_dict(self) -> Dict:
        """JSON-serialisable form (the queue's job wire format)."""
        return job_to_dict(self.job)

    @classmethod
    def from_dict(cls, d: Dict) -> "FitRequest":
        """Inverse of :meth:`to_dict`."""
        return cls.from_job(job_from_dict(d))
