"""Timing engine: cycle-level in-order core model and results."""

from .base import CoreModel, ISSUED, STALLED, SimulationDiverged
from .result import SimResult

__all__ = [
    "CoreModel",
    "ISSUED",
    "STALLED",
    "SimulationDiverged",
    "SimResult",
]
