"""Discrete-event simulation engine: event queue, SM model, statistics."""

from .events import Event, EventQueue
from .stats import IntervalRecord, SimStats
from .sm import StreamingMultiprocessor
from .simulator import Simulator, SimulationResult

__all__ = [
    "Event",
    "EventQueue",
    "IntervalRecord",
    "SimStats",
    "StreamingMultiprocessor",
    "Simulator",
    "SimulationResult",
]
