"""Exception types shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(ReproError):
    """A number-format definition or conversion is invalid."""


class FitError(ReproError):
    """The PWL fitting procedure received invalid inputs or diverged."""


class HardwareError(ReproError):
    """The hardware model was configured or driven inconsistently."""


class GraphError(ReproError):
    """A graph IR construction or execution problem."""


class CatalogError(ReproError):
    """The model-zoo catalog was queried inconsistently."""


class ServiceError(ReproError):
    """The fit service (daemon, queue, or spec transport) misbehaved."""


class TransientError(ReproError):
    """A failure that is safe to retry (I/O hiccup, injected fault).

    :class:`~repro.service.retry.RetryPolicy` treats subclasses of this
    marker — alongside ``OSError`` and broken process pools — as
    retryable; every other error is assumed deterministic and fails
    fast.
    """


class CacheIntegrityError(ReproError):
    """A cache entry failed its checksum or structural validation.

    Raised internally by :class:`~repro.core.batchfit.FitCache` reads;
    callers never see it (the entry is quarantined and the read becomes
    a miss), but ``repro cache verify`` reports the underlying cause.
    """
