"""Deterministic causal tracing: per-invocation spans across hops.

The paper's Figures 2-5 are causal-path diagrams: an IIOP request
crosses the gateway, becomes a Totem INVOCATION, is totally ordered,
executes at every replica, and its responses are de-duplicated on the
way back.  This module records that path per invocation as a tree of
**spans** on the simulated clock, collected in one per-``World``
:class:`TraceCollector`.

Design constraints, in priority order:

* **Determinism.**  Span ids come from a plain counter and every
  timestamp is simulated time, so two runs of the same seeded scenario
  export *byte-identical* traces (``tests/test_obs_tracing.py``).
* **Zero cost when disabled.**  Every instrumentation hook checks a
  single ``enabled`` boolean first and only an enabled collector
  registers the ``trace.*`` metric counters, so a disabled world
  produces byte-identical metrics snapshots and wire traffic to a build
  without tracing at all.
* **Sound nesting.**  Hops are asynchronous: a late duplicate response
  can arrive after the invocation's container span closed.  ``end``
  therefore extends already-closed *ancestors* to cover a late child,
  so the exported tree always satisfies "every child lies within its
  parent" by construction (hop-latency analysis reads the leaf hop
  spans, which are never stretched).

The collector is shared by all hosts of the world — spans opened on one
processor are routinely closed on another (e.g. the ordering-wait span
opened at the forwarding gateway ends when *any* gateway observes the
delivery), exactly mirroring how the causal path itself spans hosts.

Exporters: :meth:`TraceCollector.export_chrome` emits Chrome
``trace_event`` JSON loadable in ``about:tracing`` / Perfetto (one
process per trace, one thread per component); :meth:`export_tree`
renders an aligned text tree.  ``tools/trace_report.py`` consumes the
Chrome JSON for critical-path analysis.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .flight import FlightRecorder


@dataclass
class TraceSpan:
    """One hop (or container) on an invocation's causal path."""

    span_id: int
    trace_id: str
    parent_id: int                     # 0 = root of its trace
    name: str
    source: str                        # component that opened the span
    start: float
    end: Optional[float] = None        # None while open
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


# ``TraceCollector.stats`` key -> the world counter summing it.
_STATS = {
    "spans_started": "trace.spans.started",
    "spans_closed": "trace.spans.closed",
    "traces_started": "trace.traces.started",
}


class TraceCollector:
    """Per-world span recorder; the causal complement of the metrics
    registry (aggregates) and the audit scope (retention)."""

    def __init__(self, enabled: bool = False,
                 clock: Optional[Callable[[], float]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 flight: Optional["FlightRecorder"] = None) -> None:
        self.enabled = enabled
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        # Optional flight recorder: span closes are high-signal events
        # for the black box (purely passive; see repro.obs.flight).
        self._flight = flight
        self.spans: List[TraceSpan] = []
        self._by_id: Dict[int, TraceSpan] = {}
        self._ids = itertools.count(1)
        self._trace_order: Dict[str, int] = {}  # trace_id -> pid (first-start order)
        self._source_order: Dict[str, int] = {}  # source -> tid
        # The trace.* counters exist only in a traced world: one with
        # tracing disabled snapshots byte-identically to a build
        # without this module (the golden-file gates rely on it).
        self.stats = dict.fromkeys(_STATS, 0)
        if enabled and metrics is not None:
            metrics.register_stats(self.stats, _STATS)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def start(self, trace_id: str, name: str, parent: int = 0,
              source: str = "", **attrs: Any) -> int:
        """Open a span; returns its id (0 when tracing is disabled).

        ``parent`` is the enclosing span's id (0 for a trace root); it
        may live on another host — the collector is world-shared.
        """
        if not self.enabled:
            return 0
        self.stats["spans_started"] += 1
        if trace_id not in self._trace_order:
            self.stats["traces_started"] += 1
            self._trace_order[trace_id] = len(self._trace_order) + 1
        if source not in self._source_order:
            self._source_order[source] = len(self._source_order) + 1
        span = TraceSpan(span_id=next(self._ids), trace_id=trace_id,
                         parent_id=parent, name=name, source=source,
                         start=self.clock(), attrs=dict(attrs))
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span.span_id

    def end(self, span_id: int, **attrs: Any) -> None:
        """Close a span (first close wins; later closes are ignored).

        Closing at time ``t`` extends every already-closed ancestor
        whose recorded end precedes ``t``: a parent's end is the max of
        its own completion and its children's, which keeps the exported
        tree properly nested even for late asynchronous children
        (duplicate responses, a one-way's execution).
        """
        if not self.enabled or span_id == 0:
            return
        span = self._by_id.get(span_id)
        if span is None or span.end is not None:
            return
        now = self.clock()
        span.end = now
        if attrs:
            span.attrs.update(attrs)
        self.stats["spans_closed"] += 1
        flight = self._flight
        if flight is not None and flight.enabled:
            flight.record("flight.span", trace=span.trace_id, name=span.name,
                          source=span.source, dur=now - span.start)
        self._extend_ancestors(span, now)

    def _extend_ancestors(self, span: TraceSpan, now: float) -> None:
        parent = self._by_id.get(span.parent_id)
        while parent is not None:
            if parent.end is not None and parent.end < now:
                parent.end = now
            parent = self._by_id.get(parent.parent_id)

    def instant(self, trace_id: str, name: str, parent: int = 0,
                source: str = "", **attrs: Any) -> int:
        """Record a zero-duration span (an event on the causal path)."""
        span_id = self.start(trace_id, name, parent=parent, source=source,
                             **attrs)
        if span_id:
            span = self._by_id[span_id]
            span.end = span.start
            self.stats["spans_closed"] += 1
            self._extend_ancestors(span, span.start)
        return span_id

    def clear(self) -> None:
        self.spans.clear()
        self._by_id.clear()
        self._trace_order.clear()
        self._source_order.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get(self, span_id: int) -> Optional[TraceSpan]:
        return self._by_id.get(span_id)

    def trace_ids(self) -> List[str]:
        """Trace ids in first-span order."""
        return sorted(self._trace_order, key=self._trace_order.__getitem__)

    def select(self, trace_id: Optional[str] = None,
               name: Optional[str] = None) -> List[TraceSpan]:
        """Spans filtered by trace and/or span name, in start order."""
        return [s for s in self.spans
                if (trace_id is None or s.trace_id == trace_id)
                and (name is None or s.name == name)]

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------

    def export_chrome(self) -> str:
        """Chrome ``trace_event`` JSON (canonical: sorted keys, no
        incidental whitespace — byte-identical across seeded reruns).

        One *process* per trace, one *thread* per component (span
        source); durations are "X" complete events in microseconds of
        simulated time.  Spans still open at export time get duration 0
        and ``"open": true`` in their args.
        """
        events: List[Dict[str, Any]] = []
        for trace_id, pid in self._trace_order.items():
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": trace_id}})
        for source, tid in self._source_order.items():
            events.append({"ph": "M", "name": "thread_name", "pid": 0,
                           "tid": tid, "args": {"name": source}})
        for span in self.spans:
            args = dict(span.attrs)
            args["span_id"] = span.span_id
            if span.parent_id:
                args["parent_id"] = span.parent_id
            if span.end is None:
                args["open"] = True
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.trace_id,
                "pid": self._trace_order.get(span.trace_id, 0),
                "tid": self._source_order.get(span.source, 0),
                "ts": _micros(span.start),
                "dur": _micros((span.end if span.end is not None
                                else span.start) - span.start),
                "args": args,
            })
        return json.dumps({"displayTimeUnit": "ms", "traceEvents": events},
                          sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    def export_tree(self) -> str:
        """Aligned text rendering, one tree per trace, children indented
        under their parents in start order."""
        if not self.spans:
            return "(no spans recorded)"
        children: Dict[int, List[TraceSpan]] = {}
        roots: Dict[str, List[TraceSpan]] = {}
        for span in self.spans:
            if span.parent_id and span.parent_id in self._by_id:
                children.setdefault(span.parent_id, []).append(span)
            else:
                roots.setdefault(span.trace_id, []).append(span)
        lines: List[str] = []

        def render(span: TraceSpan, depth: int) -> None:
            indent = "  " * depth
            dur = (f"{span.duration * 1000:9.3f}ms" if span.closed
                   else "     open")
            extra = " ".join(f"{k}={v!r}" for k, v in span.attrs.items())
            label = f"{indent}{span.name}"
            lines.append(f"{label:<44} {dur}  [{span.source}] {extra}".rstrip())
            for child in children.get(span.span_id, ()):
                render(child, depth + 1)

        for trace_id in self.trace_ids():
            lines.append(f"trace {trace_id}")
            for root in roots.get(trace_id, ()):
                render(root, 1)
        return "\n".join(lines)


def _micros(seconds: float) -> int:
    """Simulated seconds -> integer microseconds (Chrome's unit)."""
    return int(round(seconds * 1e6))
