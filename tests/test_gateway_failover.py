"""Integration tests: gateway failure scenarios (paper sections 3.4, 3.5).

Timing notes: external clients sit one WAN hop (40 ms) from the
gateway; the SLOW_TOTEM config stretches the in-domain turnaround so a
crash can deterministically land *after* the gateway forwarded the
request but *before* the reply left for the client.
"""

import pytest

from repro import CommFailure, Orb, World
from repro.apps import COUNTER_INTERFACE

from tests.helpers import (
    EVENTS,
    EventSinkServant,
    SLOW_TOTEM,
    crash_gateway_on_response,
    external_client,
    make_counter_group,
    make_domain,
    replica_counts,
)


# ----------------------------------------------------------------------
# Section 3.4: plain ORBs, single gateway
# ----------------------------------------------------------------------

def test_plain_client_loses_outstanding_invocations_on_gateway_crash(world):
    domain = make_domain(world, gateways=1, mirror=False)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1))
    gateway = domain.gateways[0]
    crash_gateway_on_response(world, gateway)
    promise = stub.call("increment", 10)
    with pytest.raises(CommFailure):
        world.await_promise(promise, timeout=240)
    # The fate of the invocation is unknown to the client, but the domain
    # DID execute it: the state moved without the client learning it.
    world.run(until=world.now + 1.0)
    assert set(replica_counts(domain, group).values()) == {11}


def test_plain_client_retry_through_new_gateway_duplicates_execution(world):
    """Section 3.4: with counter-assigned ids, a client (or application)
    that re-issues after a gateway failure corrupts server state."""
    domain = make_domain(world, gateways=1, mirror=False)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1))
    gateway = domain.gateways[0]
    crash_gateway_on_response(world, gateway)
    promise = stub.call("increment", 10)
    with pytest.raises(CommFailure):
        world.await_promise(promise, timeout=240)
    world.run(until=world.now + 1.0)
    # Application-level retry through a newly added gateway.
    domain.add_gateway(port=2809, mirror_requests=False)
    domain.await_stable()
    _, retry_stub, _ = external_client(world, domain, group, enhanced=False,
                                       host_name="browser2")
    world.await_promise(retry_stub.call("increment", 10), timeout=240)
    # 1 + 10 (lost-but-executed) + 10 (retry) = duplicate execution.
    assert set(replica_counts(domain, group).values()) == {21}


def test_plain_client_cannot_use_backup_gateway_profiles(world):
    """A plain ORB only understands the first profile: even with a
    second gateway alive, its requests fail once gateway 0 is down."""
    domain = make_domain(world, gateways=2, mirror=False)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1))
    world.faults.crash_now(domain.gateways[0].host.name)
    world.run(until=world.now + 0.5)
    with pytest.raises(CommFailure):
        world.await_promise(stub.call("increment", 1), timeout=240)


def test_response_for_unknown_client_is_unroutable_at_peer_gateway(world):
    """An isolated gateway does not record its peers' requests, so a
    response for a client it never saw is unexpected there and cannot
    be routed (section 3.4)."""
    domain = make_domain(world, gateways=2, mirror=False)
    group = make_counter_group(domain)
    peer = domain.gateways[1]
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    gateway = domain.gateways[0]
    crash_gateway_on_response(world, gateway)
    promise = stub.call("increment", 5)
    with pytest.raises(CommFailure):
        world.await_promise(promise, timeout=240)
    world.run(until=world.now + 1.0)
    assert peer.stats["mirrors_recorded"] == 0
    assert peer.stats["responses_unexpected"] >= 1
    assert peer.stats["responses_delivered"] == 0
    assert not peer._filter._delivered  # no reply held for a reissue


# ----------------------------------------------------------------------
# Section 3.5: redundant gateways + enhanced client layer
# ----------------------------------------------------------------------

def test_enhanced_client_fails_over_to_next_profile(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    world.faults.crash_now(domain.gateways[0].host.name)
    assert world.await_promise(stub.call("increment", 1), timeout=240) == 2
    assert layer.failover_log  # the layer really did traverse profiles
    assert layer.failover_log[0][1] == (domain.gateways[1].host.name, 2809)


def test_enhanced_client_reissue_does_not_duplicate_execution(world):
    """The crux of section 3.5: the reissued invocation carries the same
    client uid and request id, so the domain's duplicate detection
    returns the original response instead of re-executing."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    gateway = domain.gateways[0]
    crash_gateway_on_response(world, gateway)
    promise = stub.call("increment", 10)
    # The enhanced client recovers the response via the second gateway.
    assert world.await_promise(promise, timeout=240) == 11
    world.run(until=world.now + 1.0)
    assert set(replica_counts(domain, group).values()) == {11}


def test_enhanced_client_recovers_response_from_mirrored_cache(world):
    """The gateway group (not just the connected gateway) receives the
    response; after failover the second gateway can serve it directly."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    peer = domain.gateways[1]
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    crash_gateway_on_response(world, domain.gateways[0])
    promise = stub.call("increment", 10)
    assert world.await_promise(promise, timeout=240) == 11
    # The reply came either from peer's cache or via domain dedup resend;
    # in both cases the peer had read the request off the forwarding
    # gateway's INVOCATION and expected its response.
    assert peer.stats["mirrors_recorded"] >= 1


def test_request_accepted_but_never_sequenced_is_recovered_by_reissue(world):
    """A gateway that dies holding an accepted two-way request whose
    INVOCATION never reached the total order leaves no trace of it in
    the domain; the enhanced client's reissue is forwarded — once — by
    the surviving gateway and executes exactly once (section 3.5)."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    gateway, peer = domain.gateways
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    assert peer.stats["mirrors_recorded"] == 1   # saw gateway's forward

    held = []
    gateway._forward = held.append   # accepted, never multicast
    promise = stub.call("increment", 10)
    world.scheduler.run_until(lambda: held, timeout=240)
    world.faults.crash_now(gateway.host.name)
    assert world.await_promise(promise, timeout=240) == 11
    assert peer.stats["requests_forwarded"] == 1
    assert peer.stats["cache_replays"] == 0
    world.run(until=world.now + 1.0)
    assert set(replica_counts(domain, group).values()) == {11}
    world.audit(strict=True)


def test_oneway_accepted_but_never_sequenced_executes_at_most_once(world):
    """The same window for a one-way: there is no reply whose absence
    would make the client reissue, so the request is lost with its
    gateway — best effort, as CORBA one-ways are — and never runs
    twice; the client carries on through the peer."""
    domain = make_domain(world, gateways=2)
    group = domain.create_group("Events", EVENTS, EventSinkServant)
    gateway, peer = domain.gateways
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    stub.call("emit", "sequenced")
    assert world.await_promise(stub.call("count")) == 1

    held = []
    gateway._forward = held.append
    stub.call("emit", "caught in the window")
    world.scheduler.run_until(lambda: held, timeout=240)
    world.faults.crash_now(gateway.host.name)
    assert world.await_promise(stub.call("count"), timeout=240) in (1, 2)
    world.run(until=world.now + 1.0)
    notes = {tuple(rm.replicas[group.group_id].servant.notes)
             for rm in domain.rms.values()
             if rm.alive and group.group_id in rm.replicas}
    assert len(notes) == 1
    assert notes.pop().count("caught in the window") <= 1
    assert peer._filter.waiters() == []
    world.audit(strict=True)


def test_three_gateways_second_crash_also_survived(world):
    domain = make_domain(world, gateways=3)
    group = make_counter_group(domain)
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    assert world.await_promise(stub.call("increment", 1)) == 1
    world.faults.crash_now(domain.gateways[0].host.name)
    assert world.await_promise(stub.call("increment", 1), timeout=240) == 2
    world.faults.crash_now(domain.gateways[1].host.name)
    assert world.await_promise(stub.call("increment", 1), timeout=240) == 3
    assert len(layer.failover_log) >= 2


def test_all_gateways_dead_enhanced_client_gives_up(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    for gateway in domain.gateways:
        world.faults.crash_now(gateway.host.name)
    world.run(until=world.now + 0.5)
    with pytest.raises(CommFailure):
        world.await_promise(stub.call("increment", 1), timeout=600)


def test_gateway_crash_metrics(world):
    """The failover is visible end to end in the metrics registry:
    detection latency is positive and bounded by the failure-detection
    period (token loss timeout) times a small rotation factor, recovery
    duration is recorded exactly once, and the gateway response
    counters partition receipts exactly."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    world.faults.crash_now(domain.gateways[0].host.name)
    assert world.await_promise(stub.call("increment", 1), timeout=240) == 2
    world.run(until=world.now + 1.0)

    m = world.metrics
    detection = m.histogram("fault.detection.latency")
    loss_timeout = next(iter(domain.members.values())).config.token_loss_timeout
    assert detection.count >= 1  # every surviving ring member detects
    assert detection.min > 0
    assert detection.max < loss_timeout * 4

    recovery = m.histogram("fault.recovery.duration")
    assert recovery.count == 1  # one crash, measured exactly once
    assert 0 < recovery.min < 1.0

    received = m.value("gateway.resp.received")
    assert received == (m.value("gateway.dup.suppressed")
                        + m.value("gateway.resp.unexpected")
                        + m.value("gateway.resp.vote_pending")
                        + m.value("gateway.resp.delivered")
                        + m.value("gateway.resp.unroutable"))

    latency = m.histogram("gateway.req.latency")
    assert latency.count == m.value("gateway.resp.delivered")
    assert latency.count >= 2
    assert m.value("host.crashes") == 1


def test_gateway_crash_leaves_domain_consistent(world):
    domain = make_domain(world, gateways=2, totem_config=SLOW_TOTEM)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    promises = [stub.call("increment", 1) for _ in range(5)]
    world.scheduler.call_after(0.045, lambda: world.faults.crash_now(
        domain.gateways[0].host.name))
    world.run_until_done(promises, timeout=600)
    results = sorted(p.result() for p in promises)
    assert results == [1, 2, 3, 4, 5]
    world.run(until=world.now + 1.0)
    assert set(replica_counts(domain, group).values()) == {5}
