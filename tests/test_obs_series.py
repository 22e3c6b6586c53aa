"""Unit and property-based tests for the repro.obs time-series layer.

The aggregators carry the per-group adaptive policy (StyleManager), so
their numeric properties are pinned here with Hypothesis:

* the ring buffer retains exactly the last ``capacity`` samples in
  append order;
* the windowed quantile sketch estimates within one bucket width of the
  exact rank statistic, clamped to the observed range, and over samples
  inside one window it reads exactly what a histogram of the same
  samples reads (one interpolation routine).

Registry semantics (laziness, labels) and canonical-JSON determinism
ride along.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.obs import (
    Histogram,
    QuantileSketch,
    RingBuffer,
    SeriesRegistry,
    SlidingRate,
)
from repro.obs.series import render_key


# ----------------------------------------------------------------------
# Keys and labels
# ----------------------------------------------------------------------

def test_render_key_sorts_and_escapes():
    registry = SeriesRegistry(enabled=True)
    entry = registry.series("series.test.metric", zone="b", group=3)
    # Labels are sorted by key and values stringified.
    assert entry.key == 'series.test.metric{group="3",zone="b"}'
    assert render_key("n", (("k", 'a"b\\c'),)) == 'n{k="a\\"b\\\\c"}'
    assert render_key("bare", ()) == "bare"


def test_label_keys_and_names_validated():
    registry = SeriesRegistry(enabled=True)
    with pytest.raises(ConfigurationError):
        registry.series("series.test.metric", BadKey="x")
    with pytest.raises(ConfigurationError):
        registry.series("Bad.Name")


def test_registry_interns_by_key():
    registry = SeriesRegistry(enabled=True)
    a = registry.series("series.test.metric", group=1)
    assert registry.series("series.test.metric", group=1) is a
    assert registry.series("series.test.metric", group=2) is not a
    assert registry.get("series.test.metric", group=1) is a
    assert registry.get("series.test.metric", group=9) is None
    assert registry.keys() == [
        'series.test.metric{group="1"}',
        'series.test.metric{group="2"}',
    ]


# ----------------------------------------------------------------------
# Laziness contract
# ----------------------------------------------------------------------

def test_disabled_registry_is_inert():
    registry = SeriesRegistry(enabled=False)
    registry.observe("series.test.metric", 1.0, group=1)
    assert registry.keys() == []
    assert registry.snapshot(0.0)["series"] == {}


# ----------------------------------------------------------------------
# RingBuffer
# ----------------------------------------------------------------------

def test_ring_capacity_validated():
    with pytest.raises(ConfigurationError):
        RingBuffer(0)


@pytest.mark.parametrize("window", [SlidingRate, QuantileSketch])
def test_window_length_validated(window):
    with pytest.raises(ConfigurationError):
        window(window_s=0.0)


@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       max_size=60),
       capacity=st.integers(min_value=1, max_value=12))
def test_ring_keeps_last_capacity_in_append_order(values, capacity):
    ring = RingBuffer(capacity)
    for i, v in enumerate(values):
        ring.append(float(i), v)
    expected = [(float(i), v) for i, v in enumerate(values)][-capacity:]
    assert ring.items() == expected
    assert ring.appended == len(values)
    assert ring.dropped == max(0, len(values) - capacity)
    assert len(ring) == min(len(values), capacity)


# ----------------------------------------------------------------------
# SlidingRate
# ----------------------------------------------------------------------

def test_sliding_rate_window_eviction():
    rate = SlidingRate(window_s=1.0)
    rate.add(0.0, 2.0)
    rate.add(0.5, 1.0)
    assert rate.rate(0.5) == pytest.approx(3.0)
    # Samples at t <= now - window leave the window (half-open interval).
    assert rate.rate(1.0) == pytest.approx(1.0)
    assert rate.rate(1.5) == pytest.approx(0.0)
    assert rate.rate(10.0) == 0.0


# ----------------------------------------------------------------------
# QuantileSketch
# ----------------------------------------------------------------------

def _exact_quantile(values, q):
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@given(values=st.lists(
    st.floats(min_value=0.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200),
    q=st.sampled_from([0.25, 0.5, 0.9, 0.95, 0.99, 1.0]))
def test_sketch_quantile_bounded_error_within_one_epoch(values, q):
    """All samples inside one epoch: the estimate interpolates within
    the bucket holding the exact rank, so the error is bounded by that
    bucket's width (Histogram geometry), clamped to the observed
    range."""
    sketch = QuantileSketch(window_s=10.0)
    for v in values:
        sketch.observe(0.0, v)
    exact = _exact_quantile(values, q)
    estimate = sketch.quantile(q, 0.0)
    bound = max(Histogram.BASE, exact * (Histogram.GROWTH - 1))
    assert abs(estimate - exact) <= bound * (1 + 1e-9) + 1e-12
    assert min(values) <= estimate <= max(values)
    assert sketch.count == len(values)


@given(samples=st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=0.999,
                        allow_nan=False, allow_infinity=False),
              st.floats(min_value=0.0, max_value=1e6,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=200),
    q=st.sampled_from([0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0]))
def test_sketch_agrees_with_the_histogram_inside_one_window(samples, q):
    """Samples spread over both epochs of one 1 s window: the sketch
    holds every one of them, and its estimate is the histogram's."""
    samples = sorted(samples, key=lambda s: s[0])
    sketch = QuantileSketch(window_s=1.0)
    histogram = Histogram("series.test.metric")
    for t, v in samples:
        sketch.observe(t, v)
        histogram.observe(v)
    now = samples[-1][0]
    assert sketch.quantile(q, now) == histogram.quantile(q)
    assert sketch.count == histogram.count


def test_sketch_clamps_negative_and_nan_to_zero():
    sketch = QuantileSketch(window_s=1.0)
    sketch.observe(0.0, -3.0)
    sketch.observe(0.0, float("nan"))
    assert sketch.quantile(0.99, 0.0) == 0.0


def test_sketch_window_rotation_forgets_old_epochs():
    """Two rotating half-window epochs: an estimate covers between
    window/2 and window of history, and everything older is gone."""
    sketch = QuantileSketch(window_s=1.0)
    sketch.observe(0.0, 100.0)
    # Still visible inside the full window (previous epoch retained).
    sketch.observe(0.6, 1.0)
    assert sketch.count == 2
    assert sketch.quantile(1.0, 0.6) == pytest.approx(100.0)
    # After a full window with no samples both epochs are stale.
    assert sketch.quantile(0.5, 5.0) is None
    assert sketch.count == 0
    sketch.observe(5.0, 7.0)
    assert sketch.quantile(0.5, 5.0) == pytest.approx(7.0)


def test_sketch_quantile_empty():
    assert QuantileSketch(window_s=1.0).quantile(0.5, 0.0) is None


# ----------------------------------------------------------------------
# Series + registry snapshots
# ----------------------------------------------------------------------

def test_series_snapshot_shape_and_aggregates():
    clock = [0.0]
    registry = SeriesRegistry(clock=lambda: clock[0], enabled=True,
                              capacity=4, window_s=2.0)
    for i in range(6):
        clock[0] = i * 0.1
        registry.observe("series.test.metric", float(i), group=1)
    entry = registry.get("series.test.metric", group=1)
    snap = entry.snapshot(clock[0])
    assert snap["name"] == "series.test.metric"
    assert snap["labels"] == {"group": "1"}
    assert snap["count"] == 6 and snap["dropped"] == 2
    assert [t for t, _ in snap["points"]] == pytest.approx(
        [0.2, 0.3, 0.4, 0.5])
    assert [v for _, v in snap["points"]] == [2.0, 3.0, 4.0, 5.0]
    assert snap["last"] == 5.0 and snap["last_t"] == 0.5
    # All six samples are inside the 2 s window: rate sums amounts.
    assert snap["rate"] == pytest.approx(15.0 / 2.0)
    assert snap["p50"] is not None and snap["p50"] <= snap["p95"]


def test_registry_json_is_deterministic():
    def build():
        clock = [0.0]
        registry = SeriesRegistry(clock=lambda: clock[0], enabled=True)
        for i in range(10):
            clock[0] = i * 0.05
            registry.observe("series.test.metric", i * 0.01, group=i % 2)
        return registry.to_json(clock[0])

    first, second = build(), build()
    assert first == second
    assert '"schema":1' in first
    # Keys appear sorted in the canonical document.
    assert first.index('group=\\"0\\"') < first.index('group=\\"1\\"')
