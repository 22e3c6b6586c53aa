"""repro.obs — metrics and instrumentation for the reproduction.

One :class:`MetricsRegistry` per :class:`~repro.sim.world.World`
(``world.metrics``) collects typed counters, gauges, and streaming
histograms from every instrumented layer: the gateway, the Totem ring,
the GIOP connections, and the Eternal fault handling machinery.  See
docs/OBSERVABILITY.md for the metric catalogue and clock semantics.
"""

from .audit import AuditEntry, AuditReport, AuditRow, AuditScope
from .export import canonical_json, parse_json, render_text, to_json
from .flight import FlightRecorder
from .hostclock import wall_clock
from .metrics import Gauge, Histogram, Metric, MetricsRegistry
from .tracing import TraceCollector, TraceSpan

__all__ = [
    "AuditEntry",
    "AuditReport",
    "AuditRow",
    "AuditScope",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "TraceCollector",
    "TraceSpan",
    "canonical_json",
    "parse_json",
    "render_text",
    "to_json",
    "wall_clock",
]
