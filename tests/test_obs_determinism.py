"""Determinism and invariant tests for the metrics layer.

Two properties anchor the observability work:

* **byte-identical reruns** — the same seeded scenario, run in two
  fresh Worlds, produces byte-identical simulated-time metrics JSON
  (the wall-clock metrics are excluded from the canonical snapshot
  precisely so this holds);
* **cross-metric invariants** — counters recorded at different layers
  must agree with each other and with the fault injector's script, for
  every cell of a crash-timing grid.
"""

from __future__ import annotations

import pytest

from repro import FtClientLayer, Orb, TotemConfig, World
from repro.analysis.scenarios import (_trace_deliveries,
                                      run_failover_scenario)
from repro.apps import COUNTER_INTERFACE
from repro.obs import parse_json

from tests.helpers import make_counter_group, make_domain


def test_failover_metrics_byte_identical_across_runs():
    json_a = run_failover_scenario().metrics_json()
    json_b = run_failover_scenario().metrics_json()
    assert json_a == json_b
    # And the snapshot is non-trivial: the headline series moved.
    metrics = parse_json(json_a)
    assert metrics["gateway.req.latency"]["count"] >= 1
    assert metrics["fault.recovery.duration"]["count"] >= 1
    assert metrics["host.crashes"]["value"] == 1


def test_different_seeds_still_share_metric_names():
    """Seeds change values, never the set of series a scenario emits."""
    names_a = sorted(parse_json(run_failover_scenario(seed=350).metrics_json()))
    names_b = sorted(parse_json(run_failover_scenario(seed=99).metrics_json()))
    assert names_a == names_b


def test_wall_metrics_never_in_canonical_json(world):
    world.metrics.counter("sim.only").inc()
    world.metrics.histogram("wall.timer", wall=True).observe(0.1)
    metrics = parse_json(world.metrics_json())
    assert "sim.only" in metrics
    assert "wall.timer" not in metrics
    assert "wall.timer" in parse_json(world.metrics_json(include_wall=True))


# ----------------------------------------------------------------------
# Invariants under a fault sweep
# ----------------------------------------------------------------------

OPERATIONS = 4
GRID = [0.01, 0.09, 0.5]


def run_chaos(victim_index, crash_delay, seed=5):
    world = World(seed=seed, trace=False)
    domain = make_domain(world, num_hosts=4, gateways=2)
    group = make_counter_group(domain, replicas=3, min_replicas=2)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="chaos")
    stub = layer.string_to_object(domain.ior_for(group).to_string(),
                                  COUNTER_INTERFACE)
    victims = [h.name for h in domain.hosts]
    victim = victims[victim_index % len(victims)]
    world.scheduler.call_after(crash_delay,
                               lambda: world.faults.crash_now(victim))
    for _ in range(OPERATIONS):
        world.await_promise(stub.call("increment", 1), timeout=600)
    world.run(until=world.now + 2.0)
    return world, domain


@pytest.mark.parametrize("victim_index", range(0, 6, 2))
@pytest.mark.parametrize("crash_delay", GRID)
def test_metric_invariants_hold_under_faults(victim_index, crash_delay):
    world, domain = run_chaos(victim_index, crash_delay)
    m = world.metrics

    # Gateway response accounting partitions exactly: every response a
    # gateway received was suppressed, unexpected, left pending a vote,
    # delivered, or unroutable — nothing double-counted, nothing lost.
    received = m.value("gateway.resp.received")
    partition = (m.value("gateway.dup.suppressed")
                 + m.value("gateway.resp.unexpected")
                 + m.value("gateway.resp.vote_pending")
                 + m.value("gateway.resp.delivered")
                 + m.value("gateway.resp.unroutable"))
    assert received == partition

    # Every injected crash is visible end to end: the injector's script,
    # the host-layer counter, and one recovery-duration observation per
    # crash (recorded at the ring reformation that excluded the victim).
    injected_crashes = sum(1 for _, action, _ in world.faults.injected
                           if action == "crash")
    assert injected_crashes == 1
    assert m.value("fault.injected.crash") == injected_crashes
    assert m.value("host.crashes") == injected_crashes
    recovery = m.histogram("fault.recovery.duration")
    assert recovery.count == injected_crashes
    assert recovery.min > 0

    # The client completed every operation, so each request the gateways
    # accepted was forwarded exactly once, and latency was observed for
    # each delivered reply.
    latency = m.histogram("gateway.req.latency")
    assert latency.count >= OPERATIONS
    assert m.value("gateway.req.received") >= OPERATIONS
    assert (m.value("gateway.req.forwarded") + m.value("gateway.cache.replays")
            == m.value("gateway.req.received"))

    # Totem bookkeeping agrees with the per-member stats dicts: the
    # registry aggregates exactly what the members counted locally.
    members = list(domain.members.values())
    assert m.value("totem.retransmit.count") == sum(
        mem.stats["retransmits"] for mem in members)
    assert m.value("totem.msg.sent") == sum(
        mem.stats["sent"] for mem in members)
    # Agreed delivery: each broadcast is delivered at most once per
    # member, so domain-wide deliveries never exceed sends x members.
    assert m.value("totem.msg.delivered") >= m.value("totem.msg.sent")


def test_chaos_runs_are_individually_deterministic():
    a = run_chaos(0, 0.09)[0].metrics_json()
    b = run_chaos(0, 0.09)[0].metrics_json()
    assert a == b


# ----------------------------------------------------------------------
# Observing a run does not change what goes on the wire
# ----------------------------------------------------------------------

def _burst_scenario(**observability):
    """Twelve overlapping calls through one gateway of a ring whose
    quota packs four messages to a frame: their INVOCATIONs and
    RESPONSEs share token visits, so they share frames."""
    world = World(seed=7, trace=False, **observability)
    domain = make_domain(world, num_hosts=3, gateways=1,
                         totem_config=TotemConfig(max_messages_per_token=64))
    group = make_counter_group(domain)
    deliveries = _trace_deliveries(domain)
    host = world.add_host("browser")
    layer = FtClientLayer(Orb(world, host, request_timeout=None))
    stub = layer.string_to_object(domain.ior_for(group).to_string(),
                                  COUNTER_INTERFACE)
    for promise in [stub.call("increment", 1) for _ in range(12)]:
        world.await_promise(promise, timeout=600)
    world.run(until=world.now + 0.5)
    return world, deliveries


def test_armed_world_puts_the_same_datagrams_on_the_ring_as_a_dark_one():
    """An armed world's requests are 80 bytes longer (the trace context
    rides in every INVOCATION), and nothing Totem decides may depend on
    that: same frames, same datagrams, same messages, same delivery
    order.  (A frame bounded by bytes as well as by message count —
    600, say — fails here.)"""
    dark, dark_trace = _burst_scenario()
    armed, armed_trace = _burst_scenario(trace_spans=True, series=True,
                                         flight=True)
    assert armed.trace_collector.trace_ids()    # it did observe
    for name in ("totem.broadcasts", "net.datagrams.sent", "totem.msg.sent"):
        assert armed.metrics.value(name) == dark.metrics.value(name), name
    assert armed_trace == dark_trace
    frames = dark.metrics.histogram("totem.frame.messages")
    assert frames.max == 4 and frames.sum == dark.metrics.value("totem.msg.sent")
    # The armed run's frames are the same frames, only bigger.
    assert armed.metrics.histogram("totem.frame.messages").sum == frames.sum
    assert armed.metrics.value("totem.bytes.broadcast") \
        > dark.metrics.value("totem.bytes.broadcast")
