"""The warm standby of the enhanced client layer (section 3.5).

An :class:`FtRequester` keeps one idle IIOP connection to the next
gateway profile of its IOR, opened when it binds.  When the active
connection is lost it promotes that standby and reissues in the same
event, so a gateway failover costs the client what propagation costs —
reset, reissue, reply: three one-way WAN hops after the crash — and not
a TCP handshake on top (five).  External clients sit one WAN hop
(40 ms) from every gateway.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CommFailure, FtClientLayer, Orb, ReplicationStyle, World

from tests.helpers import (
    external_client,
    make_counter_group,
    make_domain,
    replica_counts,
)
from tests.test_gateway_state_lifecycle import EVENTS, EventSinkServant

ONE_WAY = 0.040
# Reset, reissue, reply — plus the in-domain turnaround.
ONE_ROUND_TRIP = 3 * ONE_WAY + 0.010


def address(gateway):
    return (gateway.host.name, gateway.port)


def warmed_client(world, domain, group):
    """An enhanced client that has completed one call (so its active
    connection and its standby are both open) and gone quiet."""
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    assert world.await_promise(stub.call("increment", 1)) == 1
    world.run(until=world.now + 0.2)
    return stub, layer


def burst(world, stub, count, amounts=None):
    """Pipeline ``count`` increments; returns (promises, resolve times)."""
    resolved = []
    promises = []
    for i in range(count):
        promise = stub.call("increment", amounts[i] if amounts else 1)
        promise.on_done(lambda _: resolved.append(world.now))
        promises.append(promise)
    return promises, resolved


def crash_at(world, when, *gateways):
    for gateway in gateways:
        world.scheduler.call_after(when - world.now, world.faults.crash_now,
                                   gateway.host.name)


def record_connects(world):
    """Every ``TcpStack.connect`` from here on, by target address."""
    connects = []
    original = world.tcp.connect

    def connect(host, target, on_connected, on_error):
        connects.append(target)
        original(host, target, on_connected, on_error)

    world.tcp.connect = connect
    return connects


# ----------------------------------------------------------------------
# (a) the headline: one WAN round trip out of every gateway failover
# ----------------------------------------------------------------------

def test_pipelined_burst_fails_over_in_one_round_trip(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    stub, layer = warmed_client(world, domain, group)
    promises, resolved = burst(world, stub, 8)
    # Mid-flight: the requests are still on their way to gateway 0.
    crash = world.now + 0.020
    crash_at(world, crash, domain.gateways[0])
    world.run_until_done(promises, timeout=60)
    # The parent needed crash + 5 x one-way: it opened the connection
    # to gateway 1 only after the reset told it to.
    assert max(resolved) <= crash + ONE_ROUND_TRIP
    assert sorted(p.result() for p in promises) == list(range(2, 10))
    requester = stub.requester
    assert requester.stats["failovers"] == 1
    assert requester.stats["standby_promotions"] == 1
    assert requester.stats["reissued"] == 8
    assert layer.failover_log == [(crash + ONE_WAY,
                                   address(domain.gateways[1]))]
    world.run(until=world.now + 1.0)
    assert set(replica_counts(domain, group).values()) == {9}
    world.audit(strict=True)


# ----------------------------------------------------------------------
# (b) the standby moves on when its gateway goes
# ----------------------------------------------------------------------

def test_standby_moves_on_when_its_gateway_dies_first(world):
    domain = make_domain(world, gateways=3)
    group = make_counter_group(domain)
    stub, layer = warmed_client(world, domain, group)
    first, second, third = domain.gateways
    # The standby's gateway dies first: the client, though idle, moves
    # its standby on to the third profile ...
    world.faults.crash_now(second.host.name)
    world.run(until=world.now + 0.5)
    assert stub.requester.stats["failovers"] == 0
    promises, resolved = burst(world, stub, 4)
    crash = world.now + 0.020
    crash_at(world, crash, first)
    world.run_until_done(promises, timeout=60)
    # ... so when the active one dies second, that failover — skipping
    # the dead profile — is still one round trip.
    assert max(resolved) <= crash + ONE_ROUND_TRIP
    assert sorted(p.result() for p in promises) == [2, 3, 4, 5]
    assert stub.requester.stats["failovers"] == 1
    assert stub.requester.stats["standby_promotions"] == 1
    assert stub.requester.current_address == address(third)
    assert [to for _, to in layer.failover_log] == [address(third)]
    world.run(until=world.now + 1.0)
    assert set(replica_counts(domain, group).values()) == {5}
    world.audit(strict=True)


def test_two_failovers_in_a_row_are_each_one_round_trip(world):
    domain = make_domain(world, gateways=3)
    group = make_counter_group(domain)
    stub, layer = warmed_client(world, domain, group)
    expected = 1
    for victim in domain.gateways[:2]:
        promises, resolved = burst(world, stub, 4)
        crash = world.now + 0.020
        crash_at(world, crash, victim)
        world.run_until_done(promises, timeout=60)
        assert max(resolved) <= crash + ONE_ROUND_TRIP
        assert sorted(p.result() for p in promises) == list(
            range(expected + 1, expected + 5))
        expected += 4
        # Let the rebind's own standby connect complete.
        world.run(until=world.now + 0.2)
    assert stub.requester.stats["failovers"] == 2
    assert stub.requester.stats["standby_promotions"] == 2
    assert [to for _, to in layer.failover_log] == [
        address(gateway) for gateway in domain.gateways[1:]]
    world.run(until=world.now + 1.0)
    world.audit(strict=True)


def test_drained_standby_gateway_is_skipped_not_promoted(world):
    """The defect the standby exposed: an idle accepted connection
    outlived a graceful stop, was promoted at the next failover, and
    the *stopped* gateway served the request."""
    domain = make_domain(world, gateways=3)
    group = make_counter_group(domain)
    stub, _ = warmed_client(world, domain, group)
    first, second, third = domain.gateways
    world.await_promise(second.drain(), timeout=600)
    world.run(until=world.now + 0.5)
    received = second.stats["requests_received"]
    promises, resolved = burst(world, stub, 4)
    crash = world.now + 0.020
    crash_at(world, crash, first)
    world.run_until_done(promises, timeout=60)
    assert max(resolved) <= crash + ONE_ROUND_TRIP
    assert sorted(p.result() for p in promises) == [2, 3, 4, 5]
    assert stub.requester.current_address == address(third)
    assert second.stats["requests_received"] == received
    world.run(until=world.now + 1.0)
    world.audit(strict=True)


# ----------------------------------------------------------------------
# (c) bind-time only: no speculative connect per transmission
# ----------------------------------------------------------------------

def test_one_refused_speculative_connect_after_failover_then_none(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    connects = record_connects(world)
    stub, _ = warmed_client(world, domain, group)
    dead, survivor = domain.gateways
    assert connects == [address(dead), address(survivor)]
    world.faults.crash_now(dead.host.name)
    assert world.await_promise(stub.call("increment", 1), timeout=60) == 2
    world.run(until=world.now + 0.2)
    # The rebind on the survivor tried the only other profile once.
    assert connects[2:] == [address(dead)]
    assert world.metrics.value("client.standby.refused") == 1
    for i in range(100):
        assert world.await_promise(stub.call("increment", 1),
                                   timeout=60) == 3 + i
    assert len(connects) == 3
    assert stub.requester.stats["failovers"] == 1
    assert world.metrics.value("client.standby.refused") == 1


# ----------------------------------------------------------------------
# Rebind on loss: idle and one-way-only clients fail over too
# ----------------------------------------------------------------------

def test_first_call_after_an_idle_gateway_loss_takes_one_round_trip(world):
    """The parent spent that call discovering the dead gateway: send,
    reset, connect, reissue, reply — 244 ms instead of 82."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    stub, layer = warmed_client(world, domain, group)
    world.faults.crash_now(domain.gateways[0].host.name)
    world.run(until=world.now + 0.5)
    # Nothing was pending, and yet the client has already moved.
    assert stub.requester.stats["failovers"] == 1
    assert stub.requester.current_address == address(domain.gateways[1])
    started = world.now
    assert world.await_promise(stub.call("increment", 1), timeout=60) == 2
    assert world.now - started <= 2 * ONE_WAY + 0.010
    assert stub.requester.stats["reissued"] == 0
    assert len(layer.failover_log) == 1


def test_oneway_only_client_fails_over(world):
    """The parent failed over only when a two-way request was pending,
    so a client sending nothing but one-ways stayed bound to the dead
    gateway and every later one-way was silently lost."""
    domain = make_domain(world, gateways=2)
    group = domain.create_group("Events", EVENTS, EventSinkServant)
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    stub.call("emit", "a")
    world.run(until=world.now + 0.5)
    world.faults.crash_now(domain.gateways[0].host.name)
    world.run(until=world.now + 0.5)
    for note in "bcdef":
        stub.call("emit", note)
    world.run(until=world.now + 1.0)
    assert stub.requester.stats["failovers"] == 1
    assert stub.requester.profile_index == 1
    notes = [rm.replicas[group.group_id].servant.notes
             for rm in domain.rms.values()
             if group.group_id in rm.replicas]
    assert len(notes) == 3
    assert all(n == list("abcdef") for n in notes)
    assert domain.gateways[1].stats["requests_received"] == 5
    world.audit(strict=True)


def test_idle_give_up_does_not_strand_the_client(world):
    """Every gateway gone while the client idles: it walks the profiles
    a bounded number of times and stops.  When a gateway is back, the
    next request gets a full traversal again, not one try at whichever
    profile the give-up happened to stop on."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    connects = record_connects(world)
    stub, _ = warmed_client(world, domain, group)
    for gateway in domain.gateways:
        gateway.stop()
    world.run(until=world.now + 5.0)
    requester = stub.requester
    assert requester.stats["failovers"] == 2 * len(requester.profiles)
    assert requester.connection is None and requester.standby is None
    attempts = len(connects)
    world.run(until=world.now + 5.0)
    assert len(connects) == attempts        # silent once it gave up
    assert requester.current_address == address(domain.gateways[0])
    domain.gateways[1].start()
    assert world.await_promise(stub.call("increment", 1), timeout=60) == 2
    assert requester.current_address == address(domain.gateways[1])


# ----------------------------------------------------------------------
# (d) shared connections stay shared
# ----------------------------------------------------------------------

def mux_stub(orb, domain, group, uid):
    layer = FtClientLayer(orb, client_uid=uid)
    return layer.string_to_object(domain.ior_for(group).to_string(),
                                  group.interface, multiplexed=True)


def test_mux_clients_make_one_speculative_connect_per_orb(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    home, neighbour = domain.gateways
    world.faults.crash_now(neighbour.host.name)
    world.run(until=world.now + 0.5)
    orb = Orb(world, world.add_host("muxhost"), request_timeout=None)
    connects = record_connects(world)
    promises = []
    for i in range(1000):
        promises.append(mux_stub(orb, domain, group,
                                 f"mux/{i}").call("increment", 1))
        if len(promises) % 50 == 0:
            world.run_until_done(promises[-50:], timeout=60)
    assert sorted(p.result() for p in promises) == list(range(1, 1001))
    # One thousand binds, one attempt at the dead neighbour.
    assert connects == [address(home), address(neighbour)]
    # And no logical client hangs a listener on the shared connection.
    assert orb.cached_connection(address(home))._closed_listeners == []
    assert sum(1 for ids in home._conn_clients.values() if ids) == 1


def test_mux_clients_promote_the_shared_standby_together(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    orb = Orb(world, world.add_host("muxhost"), request_timeout=None)
    connects = record_connects(world)
    stubs = [mux_stub(orb, domain, group, f"mux/{i}") for i in range(5)]
    world.run_until_done([s.call("increment", 1) for s in stubs], timeout=60)
    world.run(until=world.now + 0.2)
    resolved = []
    promises = []
    for stub in stubs:
        promise = stub.call("increment", 1)
        promise.on_done(lambda _: resolved.append(world.now))
        promises.append(promise)
    crash = world.now + 0.020
    crash_at(world, crash, domain.gateways[0])
    world.run_until_done(promises, timeout=60)
    assert max(resolved) <= crash + ONE_ROUND_TRIP
    assert sorted(p.result() for p in promises) == [6, 7, 8, 9, 10]
    for stub in stubs:
        assert stub.requester.stats["standby_promotions"] == 1
    world.run(until=world.now + 0.5)
    # One connection per gateway for the whole ORB; the rebinds look
    # back at the dead one, find its failed cache entry and leave it.
    assert connects == [address(g) for g in domain.gateways]


def test_idle_mux_client_learns_of_the_loss_from_its_next_call(world):
    """A shared connection is never watched, so a multiplexed client
    that was idle at the crash finds out when it next transmits — and
    then fails over on the spot instead of redialling the dead
    gateway."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    orb = Orb(world, world.add_host("muxhost"), request_timeout=None)
    stub = mux_stub(orb, domain, group, "mux/idle")
    assert world.await_promise(stub.call("increment", 1), timeout=60) == 1
    world.faults.crash_now(domain.gateways[0].host.name)
    world.run(until=world.now + 0.5)
    assert stub.requester.stats["failovers"] == 0
    connects = record_connects(world)
    started = world.now
    assert world.await_promise(stub.call("increment", 1), timeout=60) == 2
    assert world.now - started <= 2 * ONE_WAY + 0.010
    assert stub.requester.stats["failovers"] == 1
    assert stub.requester.stats["standby_promotions"] == 1
    assert connects == []


# ----------------------------------------------------------------------
# (e) plain ORBs (section 3.4) are not touched
# ----------------------------------------------------------------------

def test_plain_orb_opens_what_it_always_opened_and_still_fails(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    connects = record_connects(world)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    assert world.await_promise(stub.call("increment", 1)) == 1
    first = address(domain.gateways[0])
    assert connects == [first]
    assert domain.gateways[1].stats["clients_connected"] == 0
    world.faults.crash_now(domain.gateways[0].host.name)
    world.run(until=world.now + 0.5)
    with pytest.raises(CommFailure):
        world.await_promise(stub.call("increment", 1), timeout=240)
    assert connects == [first, first]


# ----------------------------------------------------------------------
# Observability: the client's side of a failover
# ----------------------------------------------------------------------

def test_failover_is_recorded_in_spans_flight_and_counters():
    world = World(seed=7, flight=True, trace_spans=True)
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    stub, layer = warmed_client(world, domain, group)
    promises, _ = burst(world, stub, 3)
    crash_at(world, world.now + 0.020, domain.gateways[0])
    world.run_until_done(promises, timeout=60)
    world.run(until=world.now + 0.2)
    # The survivor goes too.  Its rebind's one speculative connect was
    # refused, so there is no standby: connect first, then reissue —
    # the cold path — round the profiles until the client gives up.
    world.faults.crash_now(domain.gateways[1].host.name)
    with pytest.raises(CommFailure):
        world.await_promise(stub.call("increment", 1), timeout=60)

    m = world.metrics
    stats = stub.requester.stats
    records = world.flight.events("flight.failover")
    assert m.value("client.failover.count") == stats["failovers"] == len(
        records)
    assert m.value("client.failover.standby") == stats["standby_promotions"]
    cold = [r for r in records if r["detail"]["path"] == "cold"]
    assert len(cold) == stats["failovers"] - stats["standby_promotions"] > 0
    assert records[0]["detail"] == {
        "client": layer.client_uid, "from": "dom-gw0:2809",
        "to": "dom-gw1:2809", "path": "standby", "pending": 3}

    # One instant under the root of every request a failover reissued.
    spans = world.trace_collector
    instants = spans.select(name="client.failover")
    assert len(instants) == stats["reissued"]
    for instant in instants[:3]:
        root = spans.get(instant.parent_id)
        assert root.name == "client.request" and root.closed
        assert root.attrs["request_id"] in (2, 3, 4)
        assert (instant.attrs["path"], instant.attrs["from"],
                instant.attrs["to"]) == ("standby", "dom-gw0:2809",
                                         "dom-gw1:2809")
    assert {i.attrs["path"] for i in instants[3:]} == {"cold"}


def test_fault_free_run_counts_no_client_failover(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    warmed_client(world, domain, group)
    assert {name: world.metrics.value(name)
            for name in world.metrics.names()
            if name.startswith("client.")} == {
        "client.failover.count": 0, "client.failover.standby": 0,
        "client.standby.refused": 0}
    assert world.flight.events("flight.failover") == []


# ----------------------------------------------------------------------
# (f) any crash instant, either victim or both, two styles
# ----------------------------------------------------------------------

BURST = 6
AMOUNTS = [1 << i for i in range(1, BURST + 1)]     # warm-up took bit 0


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(offset=st.floats(min_value=-0.100, max_value=0.150),
       victim=st.sampled_from(["active", "standby", "both"]),
       gateways=st.integers(min_value=2, max_value=3),
       style=st.sampled_from([ReplicationStyle.ACTIVE,
                              ReplicationStyle.WARM_PASSIVE]))
def test_no_crash_instant_hangs_loses_or_duplicates(offset, victim, gateways,
                                                    style):
    world = World(seed=99)
    domain = make_domain(world, gateways=gateways)
    group = make_counter_group(domain, style=style)
    domain.await_ready(group)
    stub, _ = warmed_client(world, domain, group)
    start = world.now + 0.100
    active, standby = domain.gateways[:2]
    if victim in ("active", "both"):
        crash_at(world, start + offset, active)
    if victim == "standby":
        crash_at(world, start + offset, standby)
    elif victim == "both":
        crash_at(world, start + offset + 0.020, standby)
    world.run(until=start)
    promises, _ = burst(world, stub, BURST, AMOUNTS)
    # No op hangs: each is served, or rejected once every profile is dead.
    world.run_until_done(promises, timeout=60)
    served = [(p.result(), a) for p, a in zip(promises, AMOUNTS)
              if not p.failed]
    rejected = sum(a for p, a in zip(promises, AMOUNTS) if p.failed)
    for promise in promises:
        if promise.failed:
            assert isinstance(promise.error, CommFailure)
            assert victim == "both" and gateways == 2
    world.run(until=world.now + 1.0)
    counts = set(replica_counts(domain, group).values())
    assert len(counts) == 1             # live replicas agree
    final = counts.pop()
    # Exactly once: the state holds the warm-up, every served increment
    # and at most the rejected ones (their fate is unknown, as CORBA
    # says) — each amount is its own bit, so a duplicate cannot hide.
    surplus = final - 1 - sum(a for _, a in served)
    assert surplus >= 0 and surplus & ~rejected == 0
    # And the served replies are one consistent history: distinct
    # running totals, each including its own increment.
    totals = [total for total, _ in served]
    assert len(set(totals)) == len(totals)
    for total, amount in served:
        assert total & amount and total <= final
    world.audit(strict=True)
