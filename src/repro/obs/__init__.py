"""repro.obs — metrics and instrumentation for the reproduction.

One :class:`MetricsRegistry` per :class:`~repro.sim.world.World`
(``world.metrics``) collects typed counters, gauges, and streaming
histograms from every instrumented layer: the gateway, the Totem ring,
the GIOP connections, and the Eternal fault handling machinery.  See
docs/OBSERVABILITY.md for the metric catalogue and clock semantics.
"""

from .audit import AuditEntry, AuditReport, AuditRow, AuditScope
from .export import (canonical_json, parse_json, render_prometheus,
                     render_text, to_json)
from .flight import FlightRecorder
from .hostclock import (override_wall_clock, reset_wall_clock,
                        set_wall_clock, wall_clock)
from .metrics import Gauge, Histogram, Metric, MetricsRegistry
from .series import (Ewma, QuantileSketch, RingBuffer, Series, SeriesRegistry,
                     SlidingRate)
from .tracing import TraceCollector, TraceSpan

__all__ = [
    "AuditEntry",
    "AuditReport",
    "AuditRow",
    "AuditScope",
    "Ewma",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "QuantileSketch",
    "RingBuffer",
    "Series",
    "SeriesRegistry",
    "SlidingRate",
    "TraceCollector",
    "TraceSpan",
    "canonical_json",
    "override_wall_clock",
    "parse_json",
    "render_prometheus",
    "render_text",
    "reset_wall_clock",
    "set_wall_clock",
    "to_json",
    "wall_clock",
]
