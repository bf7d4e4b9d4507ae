"""Simulation observability: metrics registry, event tracer, exporters.

Off by default and invisible to the result cache — see :mod:`repro.obs.core`.

Harness drivers report into the same registry as simulations: the adaptive
sweep loop (:mod:`repro.analysis.adaptive`) counts ``sweep/rounds``,
``sweep/proposed_points``, ``sweep/cached_points`` and
``sweep/simulated_points`` when handed an enabled instance.
"""

from .core import DISABLED, Observability, ObsConfig, make_observability
from .export import (
    INTERVAL_COLUMNS,
    chrome_trace,
    interval_rows,
    validate_chrome_trace,
    write_chrome_trace,
    write_intervals,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .tracer import EVENT_KINDS, NullTracer, TraceEvent, Tracer

__all__ = [
    "DISABLED",
    "Observability",
    "ObsConfig",
    "make_observability",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Tracer",
    "NullTracer",
    "TraceEvent",
    "EVENT_KINDS",
    "INTERVAL_COLUMNS",
    "chrome_trace",
    "interval_rows",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_intervals",
    "write_jsonl",
]
