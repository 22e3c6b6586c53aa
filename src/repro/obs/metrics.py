"""Typed metrics: counters, gauges, and streaming histograms.

The registry is the world-wide view of the reproduction's numbers.
Every component of a :class:`~repro.sim.world.World` shares one
:class:`MetricsRegistry` (reachable as ``world.metrics`` and, from any
:class:`~repro.sim.host.Process`, via the ``metrics`` property), so a
scenario's behaviour — request latency distributions, token rotations,
duplicate suppressions, recovery durations — can be read off after the
run in one place.

The gateway, Totem member, Replication Mechanisms and fault detector
count in their own ``stats`` dicts, summed into world counters by
:meth:`MetricsRegistry.register_stats`; the scheduler and network export
int attributes through :meth:`MetricsRegistry.counter_fn`.  Such
counters reject ``inc()``: each event is counted once, at its source.

Two clocks coexist:

* the **simulated** clock (the deterministic ``Scheduler``), which all
  default metrics read.  Two runs of the same seeded scenario produce
  *byte-identical* snapshots of these metrics;
* the **wall clock** (:func:`repro.obs.hostclock.wall_clock`, the
  repo's single sanctioned host-time boundary), for metrics created
  with ``wall=True``.  Wall metrics measure simulator throughput, vary
  from run to run, and are therefore excluded from the default
  snapshot.

Metric names are hierarchical, dot-separated, lowercase
(``gateway.req.latency``, ``totem.token.rotation``, ``giop.bytes.out``)
so reports group naturally by subsystem.  See docs/OBSERVABILITY.md for
the full catalogue.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple)

from ..errors import ConfigurationError
from .hostclock import wall_clock as _host_wall_clock

ClockFn = Callable[[], float]

_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def _validate_name(name: str) -> str:
    segments = name.split(".")
    if not segments or any(
            not seg or not set(seg) <= _NAME_CHARS for seg in segments):
        raise ConfigurationError(
            f"invalid metric name {name!r}: want dot-separated lowercase "
            "segments of [a-z0-9_]")
    return name


class Metric:
    """Common base: a named, typed, optionally wall-clock metric."""

    kind = "metric"

    def __init__(self, name: str, unit: str = "", wall: bool = False) -> None:
        self.name = name
        self.unit = unit
        self.wall = wall

    def snapshot(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count of events."""

    kind = "counter"

    def __init__(self, name: str, unit: str = "", wall: bool = False) -> None:
        super().__init__(name, unit, wall)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {amount})")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "unit": self.unit, "value": self.value}


class Gauge(Metric):
    """A value that can move both ways (queue depths, live host counts)."""

    kind = "gauge"

    def __init__(self, name: str, unit: str = "", wall: bool = False) -> None:
        super().__init__(name, unit, wall)
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "unit": self.unit, "value": self.value}


class CallbackCounter(Counter):
    """Counter whose value is read from a callback at snapshot time.

    The lazy-instrumentation seam: hot-path components (the scheduler,
    the network) keep plain int attributes and export them through one
    of these, so the fast paths never touch a metric object.  Reads are
    as cheap as the callback; writes through ``inc`` are rejected —
    the owning component's attribute is the single source of truth.
    """

    kind = "counter"

    def __init__(self, name: str, fn: Callable[[], int], unit: str = "",
                 wall: bool = False) -> None:
        # Deliberately skip Counter.__init__: it assigns the plain
        # ``value`` attribute this class replaces with a property.
        Metric.__init__(self, name, unit, wall)
        self._fn = fn

    @property
    def value(self) -> int:  # type: ignore[override]
        return self._fn()

    def inc(self, amount: int = 1) -> None:
        raise ConfigurationError(
            f"counter {self.name} is callback-backed; count in the "
            "owning component instead")


class SummedCounter(CallbackCounter):
    """One ``stats`` key summed over every dict ever registered for it,
    those of components a host restart replaced included, so the sum
    is monotone (see :meth:`MetricsRegistry.register_stats`)."""

    def __init__(self, name: str, key: str) -> None:
        Metric.__init__(self, name)
        self.key = key
        self._get = itemgetter(key)
        self.dicts: List[Dict[str, int]] = []

    @property
    def value(self) -> int:  # type: ignore[override]
        return sum(map(self._get, self.dicts))


def _bucket_boundaries(base: float, growth: float, top: float) -> List[float]:
    bounds = [base]
    while bounds[-1] < top:
        bounds.append(bounds[-1] * growth)
    return bounds


class Histogram(Metric):
    """Streaming distribution with bounded-error quantile estimates.

    Observations land in exponentially growing buckets (first bucket
    ``[0, base)``, then width ×``growth`` per bucket).  Quantiles are
    estimated by linear interpolation within the bucket holding the
    requested rank and clamped to the observed ``[min, max]``, which
    bounds the error of an estimate for exact value ``v`` by
    ``max(base, v * (growth - 1))`` — the width of v's bucket.

    Negative observations are clamped to 0 (durations and sizes are
    non-negative by construction; the clamp keeps a buggy caller from
    corrupting the bucket index).
    """

    kind = "histogram"

    BASE = 1e-6
    GROWTH = 1.15
    _BOUNDS = _bucket_boundaries(BASE, GROWTH, 1e7)

    def __init__(self, name: str, unit: str = "s", wall: bool = False) -> None:
        super().__init__(name, unit, wall)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        # Sparse bucket index -> count; index len(_BOUNDS) is overflow.
        self._buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        if value < 0 or value != value:  # negative or NaN
            value = 0.0
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = bisect_right(self._BOUNDS, value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def quantile(self, q: float) -> Optional[float]:
        """Estimated q-quantile (0 < q <= 1); None when empty."""
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self._buckets):
            in_bucket = self._buckets[index]
            if cumulative + in_bucket >= rank:
                lower = 0.0 if index == 0 else self._BOUNDS[index - 1]
                upper = (self._BOUNDS[index] if index < len(self._BOUNDS)
                         else (self.max if self.max is not None else lower))
                fraction = (rank - cumulative) / in_bucket
                estimate = lower + (upper - lower) * fraction
                assert self.min is not None and self.max is not None
                return min(max(estimate, self.min), self.max)
            cumulative += in_bucket
        return self.max  # pragma: no cover - unreachable (counts agree)

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def cumulative_buckets(self) -> List[Tuple[Optional[float], int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        Only occupied buckets are materialised (the geometry is sparse);
        the final pair's bound is None, meaning ``+Inf``.  Empty
        histograms return an empty list."""
        pairs: List[Tuple[Optional[float], int]] = []
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            bound = (self._BOUNDS[index] if index < len(self._BOUNDS)
                     else None)
            pairs.append((bound, cumulative))
        if pairs and pairs[-1][0] is not None:
            pairs.append((None, cumulative))
        return pairs

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "unit": self.unit,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Hierarchically named metrics sharing one simulated clock.

    ``counter`` / ``gauge`` / ``histogram`` create on first use and
    return the existing instance afterwards, so call sites never need a
    registration phase; asking for an existing name with a different
    type (or a different clock domain) raises, which catches drift
    between writers early.
    """

    def __init__(self, clock: Optional[ClockFn] = None,
                 wall_clock: Optional[ClockFn] = None) -> None:
        self.clock: ClockFn = clock if clock is not None else (lambda: 0.0)
        # The default delegates through repro.obs.hostclock on every
        # read, so a test's override_wall_clock() reaches registries
        # built before the override was installed.
        self.wall_clock: ClockFn = (wall_clock if wall_clock is not None
                                    else _host_wall_clock)
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------

    def _intern(self, cls, name: str, unit: str, wall: bool) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            # isinstance, not exact type: a CallbackCounter satisfies a
            # later counter() lookup (readers don't care how the value
            # is produced).
            if not isinstance(existing, cls) or existing.wall != wall:
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).kind}(wall={existing.wall}), "
                    f"requested {cls.kind}(wall={wall})")
            return existing
        metric = cls(_validate_name(name), unit=unit, wall=wall)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, unit: str = "",
                wall: bool = False) -> Counter:
        return self._intern(Counter, name, unit, wall)  # type: ignore[return-value]

    def counter_fn(self, name: str, fn: Callable[[], int], unit: str = "",
                   wall: bool = False) -> CallbackCounter:
        """Register (or re-point) a callback-backed counter.

        Re-registering an existing callback counter swaps the callback —
        a rebuilt component (e.g. a fresh scheduler attached to the same
        registry) takes over the metric.  A name already held by a
        writable counter raises: silently shadowing recorded increments
        would corrupt the snapshot.
        """
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not CallbackCounter or existing.wall != wall:
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).kind}(wall={existing.wall}), "
                    f"requested callback counter(wall={wall})")
            existing._fn = fn
            return existing
        metric = CallbackCounter(_validate_name(name), fn, unit=unit,
                                 wall=wall)
        self._metrics[name] = metric
        return metric

    def register_stats(self, stats: Dict[str, int],
                       table: Mapping[str, Optional[str]]) -> None:
        """Add ``stats`` to the sums its table names: ``table`` maps each
        key to the world counter summing it (None keeps the key local).
        Summing a name under two keys, or over another metric, raises."""
        for key, name in table.items():
            if name is None:
                continue
            metric = self._metrics.get(name)
            if metric is None:
                metric = SummedCounter(_validate_name(name), key)
                self._metrics[name] = metric
            if not isinstance(metric, SummedCounter) or metric.key != key:
                raise ConfigurationError(
                    f"metric {name!r} is already registered; it cannot "
                    f"also sum stats key {key!r}")
            metric.dicts.append(stats)

    def gauge(self, name: str, unit: str = "", wall: bool = False) -> Gauge:
        return self._intern(Gauge, name, unit, wall)  # type: ignore[return-value]

    def histogram(self, name: str, unit: str = "s",
                  wall: bool = False) -> Histogram:
        return self._intern(Histogram, name, unit, wall)  # type: ignore[return-value]

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def value(self, name: str) -> Any:
        """Counter/gauge value (0 when absent) — test/report convenience."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        raise ConfigurationError(f"metric {name!r} is a {metric.kind}; "
                                 "read histograms directly")

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """The registry's simulated time (for manual span arithmetic)."""
        return self.clock()

    @contextmanager
    def timer(self, name: str, wall: bool = False) -> Iterator[None]:
        """Time a block into the histogram ``name`` using the metric's
        clock domain (simulated by default, wall with ``wall=True``)."""
        histogram = self.histogram(name, unit="s", wall=wall)
        clock = self.wall_clock if wall else self.clock
        start = clock()
        try:
            yield
        finally:
            histogram.observe(clock() - start)

    def span(self, name: str) -> "Span":
        """Begin an explicit simulated-time span; ``stop()`` records it.

        For callback-style code where a ``with`` block cannot straddle
        the scheduler: stash the span, call ``stop()`` from the
        completion callback."""
        return Span(self.histogram(name, unit="s"), self.clock)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self, include_wall: bool = False) -> Dict[str, Dict[str, Any]]:
        """Plain-dict dump of every metric, sorted by name.

        With the default ``include_wall=False`` the result is a pure
        function of the simulation (byte-identical across reruns of a
        seeded scenario); ``include_wall=True`` adds the wall-clock
        metrics for throughput reports."""
        return {name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())
                if include_wall or not metric.wall}


class Span:
    """One in-flight simulated-time measurement (see ``MetricsRegistry.span``)."""

    __slots__ = ("_histogram", "_clock", "_start", "done")

    def __init__(self, histogram: Histogram, clock: ClockFn) -> None:
        self._histogram = histogram
        self._clock = clock
        self._start = clock()
        self.done = False

    def stop(self) -> float:
        """Record the elapsed simulated time (idempotent); returns it."""
        elapsed = self._clock() - self._start
        if not self.done:
            self.done = True
            self._histogram.observe(elapsed)
        return elapsed
