"""Unit and property-based tests for the repro.obs metrics layer."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro import World
from repro.errors import ConfigurationError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_json,
    render_prometheus,
    render_text,
    to_json,
)
from tests.helpers import external_client, make_domain, ready_counter_group


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", [
    "gateway.req.latency", "totem.token.rotation", "a", "a_b.c0",
])
def test_valid_names_accepted(name):
    assert MetricsRegistry().counter(name).name == name


@pytest.mark.parametrize("name", [
    "", ".", "a.", ".a", "a..b", "A.b", "a-b", "a b", "giop.msg.Reply",
])
def test_invalid_names_rejected(name):
    with pytest.raises(ConfigurationError):
        MetricsRegistry().counter(name)


# ----------------------------------------------------------------------
# Counter / gauge semantics
# ----------------------------------------------------------------------

def test_counter_monotonic():
    c = Counter("t.c")
    assert c.value == 0
    c.inc()
    c.inc(5)
    assert c.value == 6
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.value == 6
    assert c.snapshot() == {"type": "counter", "unit": "", "value": 6}


def test_gauge_moves_both_ways():
    g = Gauge("t.g", unit="conn")
    g.set(10)
    g.inc(2)
    g.dec(5)
    assert g.value == 7
    assert g.snapshot() == {"type": "gauge", "unit": "conn", "value": 7}


def test_registry_interns_and_checks_types():
    registry = MetricsRegistry()
    c1 = registry.counter("x.y")
    assert registry.counter("x.y") is c1
    with pytest.raises(ConfigurationError):
        registry.gauge("x.y")
    with pytest.raises(ConfigurationError):
        registry.counter("x.y", wall=True)
    assert registry.names() == ["x.y"]
    assert registry.get("x.y") is c1
    assert registry.get("missing") is None


def test_registry_value_convenience():
    registry = MetricsRegistry()
    assert registry.value("absent.counter") == 0
    registry.counter("a.b").inc(3)
    assert registry.value("a.b") == 3
    registry.histogram("h.h").observe(1.0)
    with pytest.raises(ConfigurationError):
        registry.value("h.h")


# ----------------------------------------------------------------------
# Summed stats counters
# ----------------------------------------------------------------------

def test_summed_counter_adds_every_registered_dict():
    registry = MetricsRegistry()
    table = {"sent": "t.msg.sent", "local": None}
    first, second = dict.fromkeys(table, 0), dict.fromkeys(table, 0)
    registry.register_stats(first, table)
    registry.register_stats(second, table)
    first["sent"] += 2
    second["sent"] += 3
    second["local"] += 7
    assert registry.value("t.msg.sent") == 5
    assert registry.names() == ["t.msg.sent"]
    assert registry.snapshot()["t.msg.sent"] == {
        "type": "counter", "unit": "", "value": 5}


def test_summed_counter_rejects_a_second_key_and_a_writable_twin():
    registry = MetricsRegistry()
    registry.register_stats({"sent": 0}, {"sent": "t.msg.sent"})
    with pytest.raises(ConfigurationError, match="stats key 'out'"):
        registry.register_stats({"out": 0}, {"out": "t.msg.sent"})
    registry.counter("t.plain").inc()
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.register_stats({"n": 0}, {"n": "t.plain"})


def test_world_counters_reject_inc():
    world = World(seed=3)
    make_domain(world, gateways=1)
    with pytest.raises(ConfigurationError):
        world.metrics.counter("gateway.req.received").inc()


def test_world_counters_keep_the_counts_of_replaced_components():
    """A restarted processor gets a fresh Totem member and RM; the world
    counters still include what the replaced ones counted."""
    world = World(seed=3)
    domain = make_domain(world, gateways=1)
    group = ready_counter_group(domain)
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("increment", 1), timeout=60) == 1
    victim = group.info().placement[0]
    old_member, old_rm = domain.members[victim], domain.rms[victim]
    world.faults.crash_now(victim)
    world.run(until=world.now + 2.5)
    world.faults.recover_now(victim)
    domain.restart_host(victim)
    domain.await_stable(timeout=60)
    assert world.await_promise(stub.call("increment", 1), timeout=60) == 2
    assert domain.members[victim] is not old_member
    assert old_member.stats["delivered"] > 0
    assert old_rm.stats["invocations_executed"] > 0
    for name, key, old, live in (
            ("totem.msg.delivered", "delivered", old_member,
             domain.members.values()),
            ("eternal.invocations.executed", "invocations_executed",
             old_rm, domain.rms.values())):
        assert world.metrics.value(name) == \
            old.stats[key] + sum(c.stats[key] for c in live)


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------

def test_histogram_empty():
    h = Histogram("t.h")
    assert h.count == 0
    assert h.quantile(0.5) is None
    assert h.mean is None
    snap = h.snapshot()
    assert snap["count"] == 0 and snap["p50"] is None


def test_histogram_clamps_negative_and_nan():
    h = Histogram("t.h")
    h.observe(-5.0)
    h.observe(float("nan"))
    assert h.count == 2
    assert h.min == 0.0 and h.max == 0.0
    assert h.quantile(0.99) == 0.0


def test_histogram_single_value_quantiles_exact():
    h = Histogram("t.h")
    h.observe(0.125)
    for q in (0.01, 0.5, 0.95, 1.0):
        # Clamping to [min, max] collapses the estimate to the value.
        assert h.quantile(q) == pytest.approx(0.125)


def _exact_quantile(values, q):
    """Rank convention matched by Histogram.quantile: the ceil(q*n)-th
    smallest observation (1-indexed)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=300),
    q=st.sampled_from([0.25, 0.5, 0.9, 0.95, 0.99, 1.0]),
)
def test_histogram_quantile_bounded_error(values, q):
    h = Histogram("t.h")
    for v in values:
        h.observe(v)
    exact = _exact_quantile(values, q)
    estimate = h.quantile(q)
    # The estimate interpolates within the bucket holding the exact
    # rank, so the error is bounded by that bucket's width.
    bound = max(Histogram.BASE, exact * (Histogram.GROWTH - 1))
    assert abs(estimate - exact) <= bound * (1 + 1e-9) + 1e-12
    assert h.min <= estimate <= h.max


@given(values=st.lists(
    st.floats(min_value=0.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=300))
def test_histogram_aggregates_exact(values):
    h = Histogram("t.h")
    for v in values:
        h.observe(v)
    assert h.count == len(values)
    assert h.sum == pytest.approx(math.fsum(values))
    assert h.min == min(values)
    assert h.max == max(values)


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------

def test_timer_and_span_use_registry_clock():
    fake = [0.0]
    registry = MetricsRegistry(clock=lambda: fake[0])
    with registry.timer("t.block"):
        fake[0] = 1.5
    h = registry.histogram("t.block")
    assert h.count == 1 and h.sum == pytest.approx(1.5)

    span = registry.span("t.span")
    fake[0] = 4.0
    assert span.stop() == pytest.approx(2.5)
    fake[0] = 9.0
    # stop() is idempotent: the second call reports but does not record.
    span.stop()
    assert registry.histogram("t.span").count == 1
    assert registry.now == 9.0


def test_wall_metrics_excluded_from_default_snapshot():
    registry = MetricsRegistry(clock=lambda: 0.0, wall_clock=lambda: 0.0)
    registry.counter("sim.events").inc()
    registry.counter("wall.elapsed", wall=True).inc()
    assert set(registry.snapshot()) == {"sim.events"}
    assert set(registry.snapshot(include_wall=True)) == {
        "sim.events", "wall.elapsed"}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def test_json_round_trip_simple():
    registry = MetricsRegistry()
    registry.counter("a.count", unit="B").inc(42)
    registry.gauge("b.depth").set(-3)
    registry.histogram("c.latency").observe(0.25)
    assert parse_json(to_json(registry)) == registry.snapshot()


def test_json_is_canonical_and_versioned():
    registry = MetricsRegistry()
    registry.counter("z.last").inc()
    registry.counter("a.first").inc()
    text = to_json(registry)
    assert text.index('"a.first"') < text.index('"z.last"')
    assert '"schema":1' in text
    with pytest.raises(ValueError):
        parse_json('{"schema":99,"metrics":{}}')


@given(counts=st.dictionaries(
    st.sampled_from(["a.x", "b.y", "c.z"]),
    st.integers(min_value=0, max_value=10**9), max_size=3),
    observations=st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False), max_size=50))
def test_json_round_trip_property(counts, observations):
    registry = MetricsRegistry()
    for name, value in counts.items():
        registry.counter(name).inc(value)
    h = registry.histogram("h.obs")
    for v in observations:
        h.observe(v)
    assert parse_json(to_json(registry)) == registry.snapshot()


def test_render_text_lists_every_metric():
    registry = MetricsRegistry()
    assert render_text(registry) == "(no metrics recorded)"
    registry.counter("a.count", unit="B").inc(7)
    registry.histogram("b.latency").observe(0.5)
    text = render_text(registry)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("a.count") and "7 B" in lines[0]
    assert "count=1" in lines[1] and "p50=0.5" in lines[1]


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def test_render_prometheus_empty_registry():
    assert render_prometheus(MetricsRegistry()) == ""


def test_render_prometheus_golden_format():
    """Exact golden rendering: counters and gauges map 1:1, histograms
    expose cumulative exponential buckets (with the +Inf terminator)
    and summary-style quantile labels plus the flattened
    _count/_sum/min/max/quantile gauges, dots become underscores, and
    output order follows the (sorted) snapshot."""
    registry = MetricsRegistry()
    registry.counter("gateway.req.received").inc(3)
    registry.gauge("rm.state.log_entries").set(12)
    h = registry.histogram("gateway.req.latency", unit="s")
    h.observe(0.25)
    (bound, _), = (p for p in h.cumulative_buckets() if p[0] is not None)
    assert render_prometheus(registry) == (
        "# TYPE gateway_req_latency_count counter\n"
        "gateway_req_latency_count 1\n"
        "# TYPE gateway_req_latency_sum counter\n"
        "gateway_req_latency_sum 0.25\n"
        "# TYPE gateway_req_latency_bucket counter\n"
        f'gateway_req_latency_bucket{{le="{bound!r}"}} 1\n'
        'gateway_req_latency_bucket{le="+Inf"} 1\n'
        'gateway_req_latency{quantile="0.5"} 0.25\n'
        'gateway_req_latency{quantile="0.95"} 0.25\n'
        'gateway_req_latency{quantile="0.99"} 0.25\n'
        "# TYPE gateway_req_latency_min gauge\n"
        "gateway_req_latency_min 0.25\n"
        "# TYPE gateway_req_latency_max gauge\n"
        "gateway_req_latency_max 0.25\n"
        "# TYPE gateway_req_latency_p50 gauge\n"
        "gateway_req_latency_p50 0.25\n"
        "# TYPE gateway_req_latency_p95 gauge\n"
        "gateway_req_latency_p95 0.25\n"
        "# TYPE gateway_req_latency_p99 gauge\n"
        "gateway_req_latency_p99 0.25\n"
        "# TYPE gateway_req_received counter\n"
        "gateway_req_received 3\n"
        "# TYPE rm_state_log_entries gauge\n"
        "rm_state_log_entries 12\n"
    )


def test_render_prometheus_buckets_are_cumulative():
    registry = MetricsRegistry()
    h = registry.histogram("h.lat")
    for value in (0.001, 0.001, 0.5, 2.0):
        h.observe(value)
    pairs = h.cumulative_buckets()
    assert pairs[-1] == (None, 4)                  # +Inf sees everything
    counts = [count for _, count in pairs]
    assert counts == sorted(counts)                # cumulative, monotone
    bounds = [bound for bound, _ in pairs[:-1]]
    assert bounds == sorted(bounds)
    text = render_prometheus(registry)
    assert 'h_lat_bucket{le="+Inf"} 4' in text


def test_render_prometheus_series_last_values():
    from repro.obs import SeriesRegistry

    registry = MetricsRegistry()
    registry.counter("a.count").inc()
    series = SeriesRegistry(enabled=True)
    series.observe("series.gateway.group.latency", 0.125, group="7")
    text = render_prometheus(registry, series=series)
    assert "# TYPE series_gateway_group_latency gauge" in text
    assert 'series_gateway_group_latency{group="7"} 0.125' in text


def test_render_prometheus_empty_histogram_quantiles_are_nan():
    registry = MetricsRegistry()
    registry.histogram("empty.latency")
    text = render_prometheus(registry)
    assert "empty_latency_count 0" in text
    assert "empty_latency_p50 NaN" in text


def test_render_prometheus_is_deterministic():
    def build():
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc(5)
        registry.histogram("m.mid").observe(1.5)
        return render_prometheus(registry)

    first, second = build(), build()
    assert first == second
    assert first.index("a_first") < first.index("m_mid") < first.index("z_last")
