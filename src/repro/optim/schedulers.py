"""Learning-rate schedulers (PyTorch-equivalent semantics).

The paper uses the "Plateau LR scheduler" — ``ReduceLROnPlateau`` — during
the PWL fit, dropping the learning rate when the loss stops improving.
``LaneReduceLROnPlateau`` is its per-lane twin for the lane-batched fit
kernel.
"""

from __future__ import annotations

import numpy as np

from ..errors import FitError
from .adam import Adam, LaneAdam


class ReduceLROnPlateau:
    """Reduce LR by ``factor`` after ``patience`` steps without improvement.

    Mirrors ``torch.optim.lr_scheduler.ReduceLROnPlateau`` in ``min`` mode
    with relative threshold.
    """

    def __init__(self, optimizer: Adam, factor: float = 0.5, patience: int = 50,
                 threshold: float = 1e-4, min_lr: float = 1e-6,
                 cooldown: int = 0) -> None:
        if not 0.0 < factor < 1.0:
            raise FitError(f"factor must be in (0, 1), got {factor}")
        self._opt = optimizer
        self.factor = float(factor)
        self.patience = int(patience)
        self.threshold = float(threshold)
        self.min_lr = float(min_lr)
        self.cooldown = int(cooldown)
        self._best = float("inf")
        self._bad_steps = 0
        self._cooldown_left = 0
        self.num_reductions = 0

    @property
    def lr(self) -> float:
        """Current learning rate."""
        return self._opt.lr

    def step(self, loss: float) -> bool:
        """Record a loss observation; returns True if LR was reduced."""
        improved = loss < self._best * (1.0 - self.threshold)
        if improved:
            self._best = loss
            self._bad_steps = 0
            return False
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return False
        self._bad_steps += 1
        if self._bad_steps > self.patience:
            new_lr = max(self._opt.lr * self.factor, self.min_lr)
            reduced = new_lr < self._opt.lr
            self._opt.lr = new_lr
            self._bad_steps = 0
            self._cooldown_left = self.cooldown
            if reduced:
                self.num_reductions += 1
            return reduced
        return False


class LaneReduceLROnPlateau:
    """Per-lane :class:`ReduceLROnPlateau` over a :class:`LaneAdam`.

    Each lane keeps its own best loss, bad-step counter and cooldown, and
    reduces its own learning rate independently — lane ``k``'s sequence
    of decisions is bit-for-bit what a scalar scheduler observing only
    lane ``k``'s losses would produce.
    """

    def __init__(self, optimizer: LaneAdam, factor: float = 0.5,
                 patience: int = 50, threshold: float = 1e-4,
                 min_lr: float = 1e-6, cooldown: int = 0) -> None:
        if not 0.0 < factor < 1.0:
            raise FitError(f"factor must be in (0, 1), got {factor}")
        self._opt = optimizer
        self.factor = float(factor)
        self.patience = int(patience)
        self.threshold = float(threshold)
        self.min_lr = float(min_lr)
        self.cooldown = int(cooldown)
        lanes = optimizer.lanes
        self._best = np.full(lanes, np.inf)
        self._bad_steps = np.zeros(lanes, dtype=np.int64)
        self._cooldown_left = np.zeros(lanes, dtype=np.int64)

    @property
    def lr(self) -> np.ndarray:
        """Current per-lane learning rates (live view)."""
        return self._opt.lr

    def step(self, loss: np.ndarray) -> np.ndarray:
        """Record one loss per lane; returns the per-lane reduced mask."""
        loss = np.asarray(loss, dtype=np.float64)
        improved = loss < self._best * (1.0 - self.threshold)
        self._best = np.where(improved, loss, self._best)
        self._bad_steps = np.where(improved, 0, self._bad_steps)
        cooling = ~improved & (self._cooldown_left > 0)
        self._cooldown_left = np.where(cooling, self._cooldown_left - 1,
                                       self._cooldown_left)
        counting = ~improved & ~cooling
        self._bad_steps = np.where(counting, self._bad_steps + 1,
                                   self._bad_steps)
        trip = counting & (self._bad_steps > self.patience)
        new_lr = np.maximum(self._opt.lr * self.factor, self.min_lr)
        reduced = trip & (new_lr < self._opt.lr)
        self._opt.lr[...] = np.where(trip, new_lr, self._opt.lr)
        self._bad_steps = np.where(trip, 0, self._bad_steps)
        self._cooldown_left = np.where(trip, self.cooldown,
                                       self._cooldown_left)
        return reduced

    def select(self, keep: np.ndarray) -> None:
        """Compact to the ``keep``-indexed lanes (optimizer already did)."""
        self._best = self._best[keep]
        self._bad_steps = self._bad_steps[keep]
        self._cooldown_left = self._cooldown_left[keep]
