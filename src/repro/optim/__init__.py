"""Optimizer substrate: Adam and the plateau LR scheduler.

Reimplements the PyTorch optimization semantics the paper relies on
(Adam with lr=0.1, momenta (0.9, 0.999); ReduceLROnPlateau) on plain
numpy arrays.
"""

from .adam import Adam, LaneAdam
from .schedulers import LaneReduceLROnPlateau, ReduceLROnPlateau

__all__ = [
    "Adam",
    "LaneAdam",
    "ReduceLROnPlateau",
    "LaneReduceLROnPlateau",
]
