"""Unit and property-based tests for the repro.obs metrics layer."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro import World
from repro.errors import ConfigurationError
from repro.obs import (
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_json,
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
    assert MetricsRegistry().counter_fn(name, int).name == name


@pytest.mark.parametrize("name", [
    "", ".", "a.", ".a", "a..b", "A.b", "a-b", "a b", "giop.msg.Reply",
])
def test_invalid_names_rejected(name):
    with pytest.raises(ConfigurationError):
        MetricsRegistry().counter_fn(name, int)
    with pytest.raises(ConfigurationError):
        MetricsRegistry().register_stats({"n": 0}, {"n": name})


# ----------------------------------------------------------------------
# Counter / gauge semantics
# ----------------------------------------------------------------------

def test_counter_monotonic():
    """A counter is read, never written: it sums its stats key over
    every dict ever registered, so a replaced component's counts stay."""
    registry = MetricsRegistry()
    table = {"sent": "t.c"}
    first = dict.fromkeys(table, 0)
    registry.register_stats(first, table)
    c = registry.get("t.c")
    assert c.value == 0
    first["sent"] += 6
    registry.register_stats(dict.fromkeys(table, 0), table)
    assert c.value == 6
    assert not hasattr(c, "inc")
    assert c.snapshot() == {"type": "counter", "unit": "", "value": 6}


def test_gauge_moves_both_ways():
    g = Gauge("t.g", unit="conn")
    g.set(10)
    g.set(7)
    assert g.value == 7
    assert g.snapshot() == {"type": "gauge", "unit": "conn", "value": 7}


def test_registry_interns_and_checks_types():
    registry = MetricsRegistry()
    g1 = registry.gauge("x.y")
    assert registry.gauge("x.y") is g1
    with pytest.raises(ConfigurationError):
        registry.histogram("x.y")
    with pytest.raises(ConfigurationError):
        registry.counter_fn("x.y", int)
    assert registry.names() == ["x.y"]
    assert registry.get("x.y") is g1
    assert registry.get("missing") is None


def test_registry_value_convenience():
    registry = MetricsRegistry()
    assert registry.value("absent.counter") == 0
    registry.counter_fn("a.b", lambda: 3)
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
    registry.gauge("t.plain").set(1)
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.register_stats({"n": 0}, {"n": "t.plain"})
    registry.counter_fn("t.read", int)
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.register_stats({"n": 0}, {"n": "t.read"})


def test_world_counters_reject_inc():
    world = World(seed=3)
    make_domain(world, gateways=1)
    counter = world.metrics.get("gateway.req.received")
    with pytest.raises(AttributeError):
        counter.inc()  # type: ignore[attr-defined]
    assert counter.value == 0


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
# Exporters
# ----------------------------------------------------------------------

def test_json_round_trip_simple():
    registry = MetricsRegistry()
    registry.counter_fn("a.count", lambda: 42, unit="B")
    registry.gauge("b.depth").set(-3)
    registry.histogram("c.latency").observe(0.25)
    assert parse_json(to_json(registry)) == registry.snapshot()


def test_json_is_canonical_and_versioned():
    registry = MetricsRegistry()
    registry.counter_fn("z.last", lambda: 1)
    registry.counter_fn("a.first", lambda: 1)
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
        registry.register_stats({"n": value}, {"n": name})
    h = registry.histogram("h.obs")
    for v in observations:
        h.observe(v)
    assert parse_json(to_json(registry)) == registry.snapshot()


def test_render_text_lists_every_metric():
    registry = MetricsRegistry()
    assert render_text(registry) == "(no metrics recorded)"
    registry.counter_fn("a.count", lambda: 7, unit="B")
    registry.histogram("b.latency").observe(0.5)
    text = render_text(registry)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("a.count") and "7 B" in lines[0]
    assert "count=1" in lines[1] and "p50=0.5" in lines[1]
