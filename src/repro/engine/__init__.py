"""Timing engine: cycle-level in-order core model and results."""

from .base import CoreModel, FetchEntry, ISSUED, STALLED, SimulationDiverged
from .result import SimResult

__all__ = [
    "CoreModel",
    "FetchEntry",
    "ISSUED",
    "STALLED",
    "SimulationDiverged",
    "SimResult",
]
