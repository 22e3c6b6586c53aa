"""Per-group adaptive style policy, driven by the time-series layer.

Two groups with very different load share one domain and one gateway.
The hot group floods through a window-1 admission queue, so *its*
requests see big queueing latencies; the cool group's sparse requests
stay fast.  The StyleManager judges each group by its own windowed
``series.gateway.group.*`` latency p50, so only the hot group is
demoted.  (A domain-wide latency p50 would be dominated by the hot
group's samples and drag the healthy cool group down with it.)

Adaptation arms the series registry itself, so the outcome is the same
whether or not the world was built with ``series=True``.
"""

from __future__ import annotations

from repro import ReplicationStyle, World
from repro.eternal.styles import StylePolicy

from tests.helpers import external_client, make_counter_group, make_domain


def run_two_group_scenario(series):
    """Flood one of two groups sharing a gateway; let the policy act."""
    world = World(seed=310, series=series, flight=True)
    domain = make_domain(world, num_hosts=3, gateways=0)
    # Window 1 serialises admissions: the flood queues, the queue is the
    # hot group's latency.  The deep queue limit keeps sheds at zero so
    # latency is the only overload signal in play.
    domain.add_gateway(port=2809, admission_window=1,
                       admission_queue_limit=64)
    domain.await_stable()
    hot = make_counter_group(domain, name="Hot", replicas=3)
    cool = make_counter_group(domain, name="Cool", replicas=3)
    policy = StylePolicy(demote_shed_rate=1e9,      # latency-only demotion
                         demote_latency_s=0.03,
                         promote_fault_rate=1e9,    # no promotions here
                         min_dwell_s=0.0)
    domain.enable_adaptive_styles(policy=policy, groups=[hot, cool],
                                  tick_interval=0.05)
    _, hot_stub, _ = external_client(world, domain, hot, enhanced=False,
                                     host_name="hot-client")
    _, cool_stub, _ = external_client(world, domain, cool, enhanced=False,
                                      host_name="cool-client")
    flood = [hot_stub.call("increment", 1) for _ in range(30)]
    world.run_until_done(flood, timeout=240)
    # Sparse cool-group traffic on the now-idle gateway: fast, and
    # enough samples (>= min_series_samples) that its p50 is trusted.
    for _ in range(6):
        world.await_promise(cool_stub.call("increment", 1), timeout=60)
    world.run(until=world.now + 2.0)
    assert domain.gateways[0].stats["requests_shed"] == 0
    return world, hot, cool


def assert_only_hot_demoted(world, hot, cool):
    assert hot.info().style is ReplicationStyle.LEADER_FOLLOWER
    assert cool.info().style is ReplicationStyle.ACTIVE
    # The black box names the demoted group and carries its signals.
    switches = world.flight.events("flight.style")
    assert switches
    assert {e["detail"]["group"] for e in switches} == {hot.group_id}
    first = switches[0]["detail"]
    assert first["reason"] == "overload"
    assert first["p50"] >= 0.03
    assert world.series.enabled


def test_series_demotes_only_the_degraded_group():
    assert_only_hot_demoted(*run_two_group_scenario(series=True))


def test_an_unarmed_world_demotes_only_the_degraded_group():
    """Built without ``series=True``, the world still adapts per group:
    enabling adaptive styles arms the series registry."""
    assert_only_hot_demoted(*run_two_group_scenario(series=False))
