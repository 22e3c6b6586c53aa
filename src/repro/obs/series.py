"""Sim-clock time series: ring buffers with windowed aggregators.

Metrics (:mod:`repro.obs.metrics`) answer "what is the total now?";
this module answers "how did it evolve?".  A :class:`SeriesRegistry`
holds labeled :class:`Series` — per group, per gateway — each backed
by a fixed-size ring of ``(t, value)`` samples plus two windowed
aggregators:

* :class:`SlidingRate` — events (or summed amounts) per second over a
  sliding window;
* :class:`QuantileSketch` — windowed quantiles: two rotating
  half-window epochs of :class:`~repro.obs.metrics.Histogram` buckets
  read by the histogram's own interpolation, so an estimate covers
  between half and one full window of history.

Series are fed directly from instrumentation sites
(``registry.observe(name, value, group="3")``) and add no scheduler
events, so an armed registry leaves the simulated event stream
byte-identical to a disabled run.  The Style Manager reads the
per-group windows to judge overload.

Laziness contract (repo convention, see ``CallbackCounter``): when the
registry is disabled — the default — instrumentation sites pay one
attribute load and one boolean test, no allocation, no metric objects.

Everything reads the simulated clock; two runs of a seeded scenario
export byte-identical JSON.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .metrics import ClockFn, Histogram, _validate_name

SERIES_SCHEMA_VERSION = 1

LabelItems = Tuple[Tuple[str, str], ...]

_LABEL_KEY_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    items: List[Tuple[str, str]] = []
    for key in sorted(labels):
        if not key or not set(key) <= _LABEL_KEY_CHARS:
            raise ConfigurationError(
                f"invalid series label key {key!r}: want lowercase [a-z0-9_]")
        items.append((key, str(labels[key])))
    return tuple(items)


def render_key(name: str, labels: LabelItems) -> str:
    """Canonical ``name{k="v",...}`` identity (labels pre-sorted)."""
    if not labels:
        return name
    rendered = ",".join(
        '%s="%s"' % (k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in labels)
    return f"{name}{{{rendered}}}"


class RingBuffer:
    """Fixed-capacity ring of ``(t, value)`` samples, oldest evicted."""

    __slots__ = ("_ring", "capacity", "appended")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.appended = 0
        self._ring: Deque[Tuple[float, float]] = deque(maxlen=capacity)

    def append(self, t: float, value: float) -> None:
        self.appended += 1
        self._ring.append((t, value))

    def items(self) -> List[Tuple[float, float]]:
        """Retained samples, oldest first."""
        return list(self._ring)

    @property
    def dropped(self) -> int:
        return self.appended - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class SlidingRate:
    """Events (or summed amounts) per second over a sliding window."""

    __slots__ = ("window_s", "_events")

    def __init__(self, window_s: float) -> None:
        if window_s <= 0:
            raise ConfigurationError(
                f"rate window must be positive, got {window_s}")
        self.window_s = window_s
        self._events: Deque[Tuple[float, float]] = deque()

    def _evict(self, now: float) -> None:
        horizon = now - self.window_s
        events = self._events
        while events and events[0][0] <= horizon:
            events.popleft()

    def add(self, t: float, amount: float = 1.0) -> None:
        self._evict(t)
        self._events.append((t, amount))

    def rate(self, now: float) -> float:
        """Summed amounts inside ``(now - window, now]`` per second."""
        self._evict(now)
        if not self._events:
            return 0.0
        return sum(amount for _, amount in self._events) / self.window_s


class QuantileSketch:
    """Windowed quantiles: two half-window epochs of histogram buckets.

    Each epoch is a :class:`~repro.obs.metrics.Histogram`; a read merges
    the two and interpolates with the histogram's own routine, so the
    estimate is the histogram's over the samples still in the window
    (between ``window/2`` and ``window`` of recent history), with the
    same error bound.
    """

    __slots__ = ("window_s", "_half", "_epoch_start", "_cur", "_prev")

    def __init__(self, window_s: float) -> None:
        if window_s <= 0:
            raise ConfigurationError(
                f"sketch window must be positive, got {window_s}")
        self.window_s = window_s
        self._half = window_s / 2.0
        self._epoch_start: Optional[float] = None
        self._cur = Histogram("epoch")
        self._prev = Histogram("epoch")

    def _roll(self, t: float) -> None:
        start = self._epoch_start
        if start is None:
            self._epoch_start = t
        elif t >= start + self.window_s:  # both epochs stale: restart at t
            self._prev, self._cur = Histogram("epoch"), Histogram("epoch")
            self._epoch_start = t
        elif t >= start + self._half:
            self._prev, self._cur = self._cur, Histogram("epoch")
            self._epoch_start = start + self._half

    def observe(self, t: float, value: float) -> None:
        self._roll(t)
        self._cur.observe(value)

    def quantile(self, q: float, now: float) -> Optional[float]:
        """Estimated q-quantile of the current window; None when empty."""
        self._roll(now)
        epochs = [h for h in (self._prev, self._cur) if h.count]
        if not epochs:
            return None
        buckets: Dict[int, int] = {}
        for epoch in epochs:
            for index, count in epoch._buckets.items():
                buckets[index] = buckets.get(index, 0) + count
        return Histogram.interpolate(
            buckets, sum(h.count for h in epochs), q,
            min(h.min for h in epochs), max(h.max for h in epochs))

    @property
    def count(self) -> int:
        return self._prev.count + self._cur.count


class Series:
    """One labeled time series: sample ring + windowed aggregators."""

    __slots__ = ("name", "labels", "key", "ring", "last_t", "last_value",
                 "_rate", "_sketch")

    def __init__(self, name: str, labels: LabelItems, capacity: int,
                 window_s: float) -> None:
        self.name = name
        self.labels = labels
        self.key = render_key(name, labels)
        self.ring = RingBuffer(capacity)
        self.last_t: Optional[float] = None
        self.last_value: Optional[float] = None
        self._rate = SlidingRate(window_s)
        self._sketch = QuantileSketch(window_s)

    def record(self, t: float, value: float) -> None:
        self.ring.append(t, value)
        self.last_t = t
        self.last_value = value
        self._rate.add(t, value)
        self._sketch.observe(t, value)

    # -- windowed reads -------------------------------------------------

    def rate(self, now: float) -> float:
        """Summed recorded amounts per second over the window."""
        return self._rate.rate(now)

    def quantile(self, q: float, now: float) -> Optional[float]:
        return self._sketch.quantile(q, now)

    def window_count(self, now: float) -> int:
        """Observations inside the sketch's current window."""
        self._sketch._roll(now)
        return self._sketch.count

    def snapshot(self, now: float) -> Dict[str, Any]:
        return {
            "name": self.name,
            "labels": {k: v for k, v in self.labels},
            "count": self.ring.appended,
            "dropped": self.ring.dropped,
            "last_t": self.last_t,
            "last": self.last_value,
            "rate": self.rate(now),
            "p50": self.quantile(0.50, now),
            "p95": self.quantile(0.95, now),
            "p99": self.quantile(0.99, now),
            "points": [[t, v] for t, v in self.ring.items()],
        }


class SeriesRegistry:
    """Labeled time series sharing one simulated clock.

    Disabled (the default) the registry is inert: instrumentation sites
    guard with ``if sr.enabled:`` and never allocate.  Enabled, a series
    records on ``observe``; nothing is polled, so arming the registry
    (``enabled = True``, at any time) adds no scheduler events.
    """

    def __init__(self, clock: Optional[ClockFn] = None, enabled: bool = False,
                 capacity: int = 240, window_s: float = 1.0) -> None:
        self.clock: ClockFn = clock if clock is not None else (lambda: 0.0)
        self.enabled = enabled
        self.capacity = capacity
        self.window_s = window_s
        self._series: Dict[str, Series] = {}

    # -- creation / lookup ----------------------------------------------

    def series(self, name: str, **labels: Any) -> Series:
        """Get-or-create the series ``name`` with these labels."""
        items = _label_items(labels)
        key = render_key(_validate_name(name), items)
        existing = self._series.get(key)
        if existing is not None:
            return existing
        created = Series(name, items, self.capacity, self.window_s)
        self._series[key] = created
        return created

    def get(self, name: str, **labels: Any) -> Optional[Series]:
        return self._series.get(render_key(name, _label_items(labels)))

    def keys(self) -> List[str]:
        return sorted(self._series)

    # -- recording ------------------------------------------------------

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one sample (no-op while disabled)."""
        if not self.enabled:
            return
        self.series(name, **labels).record(self.clock(), value)

    # -- export ---------------------------------------------------------

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Deterministic dump of every series, sorted by key."""
        at = self.clock() if now is None else now
        return {
            "schema": SERIES_SCHEMA_VERSION,
            "t": at,
            "window_s": self.window_s,
            "capacity": self.capacity,
            "series": {key: self._series[key].snapshot(at)
                       for key in sorted(self._series)},
        }

    def to_json(self, now: Optional[float] = None) -> str:
        from .export import canonical_json
        return canonical_json(self.snapshot(now))
