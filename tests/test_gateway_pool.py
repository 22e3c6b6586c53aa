"""Tests: the gateway farm (pool sharding, breakers, re-homing).

Covers the :class:`repro.core.GatewayPool` surface end to end:
circuit-breaker state machine units, consistent-hash routing and
rebalancing, enhanced-client failover across pool-aware IOR profiles,
plain-ORB re-homing via GIOP ``OBJECT_FORWARD``, admission-control
shedding, and logical-client identity multiplexing — all with the
exactly-once guarantees the farm inherits from the gateway group and
duplicate suppression.
"""

import zlib
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CircuitBreaker,
    FaultToleranceDomain,
    FtClientLayer,
    GatewayPool,
    Orb,
    TotemConfig,
    World,
)
from repro.core import gateway_pool
from repro.eternal.naming import make_object_key
from repro.iiop import (
    GiopFramer,
    LocateStatus,
    decode_locate_forward,
    decode_locate_reply,
    encode_locate_request,
)

from tests.helpers import (
    crash_gateway_on_response,
    farm_open_loop,
    make_counter_group,
    make_domain,
    ready_counter_group,
    replica_counts,
)


# ----------------------------------------------------------------------
# Circuit breaker units (manual clock)
# ----------------------------------------------------------------------

def make_breaker():
    clock = {"now": 0.0}
    events = []
    breaker = CircuitBreaker(clock=lambda: clock["now"],
                             listener=events.append)
    return breaker, clock, events


THRESHOLD = CircuitBreaker.FAILURE_THRESHOLD
RESET = CircuitBreaker.RESET_TIMEOUT


def test_breaker_trips_after_consecutive_failures():
    breaker, _, events = make_breaker()
    for _ in range(THRESHOLD - 1):
        breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED and breaker.can_accept()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.can_accept()
    assert events == ["trip"]


def test_breaker_success_resets_the_failure_count():
    breaker, _, _ = make_breaker()
    for _ in range(THRESHOLD - 1):
        breaker.record_failure()
    breaker.record_success()
    for _ in range(THRESHOLD - 1):
        breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN


def test_breaker_half_opens_lazily_and_bounds_probes():
    breaker, clock, events = make_breaker()
    breaker.force_open()
    assert breaker.state == CircuitBreaker.OPEN
    clock["now"] = RESET - 0.01
    assert not breaker.can_accept()          # not yet
    clock["now"] = RESET
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.can_accept()
    for _ in range(CircuitBreaker.PROBE_QUOTA):
        breaker.note_routed()
    assert not breaker.can_accept()          # probe quota exhausted
    assert events == ["trip"] + ["probe"] * CircuitBreaker.PROBE_QUOTA


def test_breaker_closes_after_enough_probe_successes():
    breaker, clock, events = make_breaker()
    breaker.force_open()
    clock["now"] = RESET
    for _ in range(CircuitBreaker.CLOSE_AFTER - 1):
        breaker.note_routed()
        breaker.record_success()
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.note_routed()
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert events[-1] == "close"


def test_breaker_reopens_on_probe_failure():
    breaker, clock, events = make_breaker()
    breaker.force_open()
    clock["now"] = RESET
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert events[-1] == "reopen"
    # The reset window restarts from the re-open instant.
    clock["now"] = RESET + RESET / 2
    assert breaker.state == CircuitBreaker.OPEN
    clock["now"] = 2 * RESET
    assert breaker.state == CircuitBreaker.HALF_OPEN


def test_breaker_force_open_is_immediate():
    breaker, _, events = make_breaker()
    breaker.force_open()
    assert breaker.state == CircuitBreaker.OPEN
    assert events == ["trip"]


# ----------------------------------------------------------------------
# Consistent-hash ring and routing
# ----------------------------------------------------------------------

def make_pool(world, size, **kwargs):
    domain = make_domain(world, gateways=0)
    pool = GatewayPool(domain, size=size, **kwargs)
    domain.await_stable()
    return domain, pool


def test_ring_rebalances_a_minority_of_keys(world):
    _, pool = make_pool(world, size=3)
    keys = [f"client/{i}#1" for i in range(200)]
    before = {key: pool.hash_owner(key) for key in keys}
    pool.add_gateway()
    pool.domain.await_stable()
    moved = sum(1 for key in keys if pool.hash_owner(key) is not before[key])
    # Consistent hashing: adding one gateway to three moves ~1/4 of the
    # key space, never a wholesale reshuffle.
    assert 0 < moved < len(keys) // 2


def test_route_prefers_the_hash_owner(world):
    _, pool = make_pool(world, size=3)
    key = "client/route#1"
    owner = pool.hash_owner(key)
    assert pool.route(key) is owner
    snapshot = world.metrics.snapshot()
    assert snapshot["pool.route.owner"]["value"] == 1
    assert snapshot["pool.route.reroutes"]["value"] == 0


def test_route_skips_open_breakers_then_goes_unroutable(world):
    _, pool = make_pool(world, size=2)
    key = "client/breaker#1"
    owner = pool.hash_owner(key)
    sibling = next(g for g in pool.gateways if g is not owner)
    for _ in range(THRESHOLD):
        pool.on_shed(owner)
    assert pool.breaker(owner).state == CircuitBreaker.OPEN
    assert pool.route(key) is sibling
    snapshot = world.metrics.snapshot()
    assert snapshot["pool.breaker.trips"]["value"] == 1
    assert snapshot["pool.route.reroutes"]["value"] == 1
    for _ in range(THRESHOLD):
        pool.on_shed(sibling)
    assert pool.route(key) is None
    assert world.metrics.snapshot()["pool.route.unroutable"]["value"] == 1


def test_breaker_probes_and_recloses_through_the_pool(world):
    _, pool = make_pool(world, size=2)
    key = "client/recovery#1"
    owner = pool.hash_owner(key)
    for _ in range(THRESHOLD):
        pool.on_shed(owner)
    assert pool.breaker(owner).state == CircuitBreaker.OPEN
    assert pool.route(key) is not owner
    world.run(until=world.now + RESET + 0.05)
    # Lazy half-open: each next route is a probe back to the owner,
    # until enough of them were served.
    for _ in range(CircuitBreaker.CLOSE_AFTER):
        assert pool.route(key) is owner
        pool.on_served(owner)
    assert pool.breaker(owner).state == CircuitBreaker.CLOSED
    snapshot = world.metrics.snapshot()
    assert snapshot["pool.breaker.probes"]["value"] >= 1
    assert snapshot["pool.breaker.closes"]["value"] == 1


def test_pool_state_is_audit_registered(world):
    domain, pool = make_pool(world, size=2)
    group = make_counter_group(domain)
    # Client activity must not grow the pool's tables: many more
    # distinct clients than the ring has positions.
    for i in range(500):
        pool.route(f"client/{i}#1")
        pool.ior_for(group, f"client/{i}#1")
    world.run(until=world.now + 2.0)   # let the ring quiesce (totem gc)
    report = world.audit()
    assert report.ok
    snapshot = world.metrics.snapshot()
    assert snapshot["pool.state.gateways"]["value"] == 2
    assert snapshot["pool.state.breakers"]["value"] == 2
    ring_size = 2 * gateway_pool.VIRTUAL_NODES
    assert snapshot["pool.state.ring"]["value"] == ring_size
    assert snapshot["pool.state.ring_walks"]["value"] == ring_size
    assert 0 < snapshot["pool.state.iors"]["value"] <= ring_size
    audited = {row.name for row in report.rows}
    assert {"pool.ring", "pool.ring_walks", "pool.iors"} <= audited


# ----------------------------------------------------------------------
# The ring walk is a bisect + table lookup: check it against a scan
# ----------------------------------------------------------------------

real_ring_hash = gateway_pool.ring_hash


def pinned_ring_hash(pins):
    """``ring_hash`` with chosen positions: pinned keys, and ``@<n>``
    for any point ``n``; everything else hashes as usual."""
    def ring_hash(key):
        if key in pins:
            return pins[key]
        if key.startswith("@") and key[1:].isdigit():
            return int(key[1:])
        return real_ring_hash(key)
    return ring_hash


def reference_walk(pool, key):
    """The walk as a linear scan over a ring built from scratch — the
    implementation ``_ring_walk`` had before the bisect, kept here as
    the oracle."""
    ring = sorted(
        (gateway_pool.ring_hash(f"{gw.host.name}#{v}"), gw.host.name, gw)
        for gw in pool.gateways for v in range(gateway_pool.VIRTUAL_NODES))
    point = gateway_pool.ring_hash(key)
    start = 0
    for i, (node_point, _, _) in enumerate(ring):
        if node_point >= point:
            start = i
            break
    walk = []
    for i in range(len(ring)):
        gateway = ring[(start + i) % len(ring)][2]
        if gateway not in walk:
            walk.append(gateway)
    return walk


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 16),
       tied=st.sets(st.integers(0, 15), max_size=4),
       tie_point=st.integers(0, 2**32 - 1),
       keys=st.lists(st.one_of(
           st.text(max_size=30),
           st.integers(0, 2**32 - 1).map(lambda n: f"@{n}")), max_size=20))
def test_ring_walk_matches_a_reference_linear_scan(size, tied, tie_point,
                                                   keys):
    # Forced CRC ties: one virtual node of each ``tied`` gateway lands
    # on the same point, so the order there is the host-name tie-break.
    pins = {f"dom-gw{i}#0": tie_point for i in tied}
    with mock.patch.object(gateway_pool, "ring_hash", pinned_ring_hash(pins)):
        domain = make_domain(World(seed=1), gateways=0)
        pool = GatewayPool(domain, size=size)
        points = pool._ring_points
        assert points == sorted(points) and len(points) == size * 32
        # Always probe the edges: before the first point, exactly on
        # and either side of the tie, and above the last point (the
        # wrap-around to position 0).
        edges = {0, points[0], points[-1], min(points[-1] + 1, 2**32 - 1),
                 2**32 - 1, tie_point, max(tie_point - 1, 0),
                 min(tie_point + 1, 2**32 - 1)}
        for key in keys + [f"@{n}" for n in sorted(edges)]:
            expected = reference_walk(pool, key)
            assert list(pool._ring_walk(key)) == expected
            addresses = [(gw.host.name, gw.port) for gw in expected]
            assert pool._walk_addresses(key) == addresses
            assert pool.hash_owner(key) is expected[0]
            assert pool.route(key) is expected[0]     # everyone healthy
            connection = SimpleNamespace(
                endpoint=SimpleNamespace(remote_addr=(key, 40000)))
            for gateway in pool.gateways:
                at_home = gateway is expected[0]
                assert pool.is_hash_owner(gateway, key, None) == at_home
                assert pool.is_hash_owner(gateway, 7, connection) == at_home
                forward = pool.locate_forward(gateway, 10, connection)
                if at_home:
                    assert forward is None
                else:
                    assert [p.address
                            for p in forward.iiop_profiles()] == addresses


def test_empty_ring_routes_nowhere(world):
    pool = GatewayPool(make_domain(world, gateways=0))
    assert pool._ring_walk("anyone#1") == ()
    assert pool.hash_owner("anyone#1") is None
    assert pool.route("anyone#1") is None
    assert pool._walk_addresses("anyone#1") == []


def test_membership_change_drops_the_interned_iors(world):
    domain, pool = make_pool(world, size=2)
    group = make_counter_group(domain)
    key = "alice#1"

    def addresses(ior):
        return [p.address for p in ior.iiop_profiles()]

    held = pool.ior_for(group, key)
    assert pool.ior_for(group, key) is held      # one IOR per ring position
    held_text, held_addresses = held.to_string(), addresses(held)
    assert len(held_addresses) == 2

    added = pool.add_gateway()
    grown = pool.ior_for(group, key)
    assert grown is not held
    assert (added.host.name, added.port) in addresses(grown)
    assert addresses(grown) == pool._walk_addresses(key)

    adopted = pool.adopt(domain.add_gateway(port=2809))
    regrown = pool.ior_for(group, key)
    assert (adopted.host.name, adopted.port) in addresses(regrown)
    assert len(addresses(regrown)) == 4

    # The reference a client already holds is a value, not a view.
    assert addresses(held) == held_addresses
    assert held.to_string() == held_text


# ----------------------------------------------------------------------
# Enhanced clients: pool-aware IOR profiles, failover, exactly-once
# ----------------------------------------------------------------------

def pool_client(world, domain, pool, group, uid, host_name="browser",
                multiplexed=False):
    host = world.network.hosts.get(host_name) or world.add_host(host_name)
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb, client_uid=uid)
    ior = pool.ior_for(group, f"{uid}#1")
    stub = layer.string_to_object(ior.to_string(), group.interface,
                                  multiplexed=multiplexed)
    return orb, stub, layer


def test_pool_ior_walks_the_ring_from_the_owner(world):
    domain, pool = make_pool(world, size=3)
    group = make_counter_group(domain)
    domain.await_ready(group)
    key = "alice#1"
    ior = pool.ior_for(group, key)
    profiles = [p.address for p in ior.iiop_profiles()]
    assert len(profiles) == 3
    owner = pool.hash_owner(key)
    assert profiles[0] == (owner.host.name, owner.port)
    assert len(set(profiles)) == 3    # every gateway appears exactly once


def test_enhanced_client_fails_over_to_ring_sibling_exactly_once(world):
    domain, pool = make_pool(world, size=3)
    group = make_counter_group(domain)
    domain.await_ready(group)
    _, stub, layer = pool_client(world, domain, pool, group, "alice")
    assert world.await_promise(stub.call("increment", 1), timeout=240) == 1
    owner = pool.hash_owner("alice#1")
    # Crash the home gateway after the domain executed the next request
    # but before the reply leaves: the precise section 3.5 window.
    crash_gateway_on_response(world, owner)
    result = world.await_promise(stub.call("increment", 1), timeout=240)
    assert result == 2
    # The reissue through the ring sibling was suppressed, not
    # re-executed: state moved exactly twice.
    world.run(until=world.now + 1.0)
    assert set(replica_counts(domain, group).values()) == {2}
    assert layer.failover_log          # the layer recorded the traversal


def test_gateway_kill_mid_burst_loses_and_duplicates_nothing(world):
    domain, pool = make_pool(world, size=3)
    group = make_counter_group(domain)
    domain.await_ready(group)
    burst = 12
    promises = []
    dead = pool.gateways[0]
    for i in range(burst):
        _, stub, _ = pool_client(world, domain, pool, group, f"burst/{i}",
                                 host_name="browser", multiplexed=True)
        promises.append(stub.call("increment", 1))
    # Kill one gateway while the burst is in flight (requests arrive at
    # t+40ms WAN; responses normally return around t+80ms).
    world.scheduler.call_after(0.06, world.faults.crash_now, dead.host.name)
    world.scheduler.run_until(lambda: all(p.done for p in promises),
                              timeout=300)
    results = sorted(p.result() for p in promises)
    # Every invocation completed with a distinct counter value: none
    # lost, none executed twice (the total order serialised them 1..N).
    assert results == list(range(1, burst + 1))
    world.run(until=world.now + 1.0)
    assert set(replica_counts(domain, group).values()) == {burst}
    # The pool notices the death lazily at the next routing decision.
    key = next(f"burst/{i}#1" for i in range(burst, burst + 100)
               if pool.hash_owner(f"burst/{i}#1") is dead)
    assert pool.route(key) is not dead
    snapshot = world.metrics.snapshot()
    assert snapshot["pool.breaker.trips"]["value"] >= 1
    assert snapshot["pool.route.reroutes"]["value"] >= 1


# ----------------------------------------------------------------------
# Plain ORBs: GIOP locate re-homing
# ----------------------------------------------------------------------

def raw_connection(world, gateway, host_name="prober"):
    host = world.network.hosts.get(host_name) or world.add_host(host_name)
    state = {}
    world.tcp.connect(host, (gateway.host.name, gateway.port),
                      lambda ep: state.setdefault("ep", ep),
                      lambda exc: state.setdefault("err", exc))
    world.scheduler.run_until(lambda: state)
    endpoint = state["ep"]
    framer = GiopFramer()
    replies = []
    endpoint.on_data = lambda data: replies.extend(framer.feed(data))
    return endpoint, replies


def test_plain_client_rehomed_by_locate_forward(world):
    domain, pool = make_pool(world, size=3)
    group = make_counter_group(domain)
    domain.await_ready(group)
    owner = pool.hash_owner("prober")    # plain ORBs key on host name
    wrong = next(g for g in pool.gateways if g is not owner)
    endpoint, replies = raw_connection(world, wrong)
    key = make_object_key(domain.name, group.group_id)
    endpoint.send(encode_locate_request(7, key))
    world.scheduler.run_until(lambda: replies, timeout=30.0)
    request_id, status = decode_locate_reply(replies[0])
    assert request_id == 7
    assert status == LocateStatus.OBJECT_FORWARD
    forward = decode_locate_forward(replies[0])
    assert forward is not None
    assert forward.iiop_profiles()[0].address == (owner.host.name, owner.port)
    assert world.metrics.snapshot()["pool.locate.forwards"]["value"] == 1
    # A year-2000 ORB follows the forward and works through its home.
    host = world.network.hosts["prober"]
    orb = Orb(world, host, request_timeout=None)
    stub = orb.string_to_object(forward.to_string(), group.interface)
    assert world.await_promise(stub.call("increment", 1), timeout=240) == 1


def test_locate_at_the_home_gateway_is_object_here(world):
    domain, pool = make_pool(world, size=3)
    group = make_counter_group(domain)
    domain.await_ready(group)
    owner = pool.hash_owner("prober")
    endpoint, replies = raw_connection(world, owner)
    endpoint.send(encode_locate_request(8, make_object_key(
        domain.name, group.group_id)))
    world.scheduler.run_until(lambda: replies, timeout=30.0)
    _, status = decode_locate_reply(replies[0])
    assert status == LocateStatus.OBJECT_HERE


# ----------------------------------------------------------------------
# Admission control and multiplexing
# ----------------------------------------------------------------------

def flood(world, seed=99):
    """A fresh over-capacity scenario; returns (results, sheds, world)."""
    domain = make_domain(world, gateways=0)
    pool = GatewayPool(domain, size=1, admission_window=1,
                       admission_queue_limit=2)
    domain.await_stable()
    group = make_counter_group(domain)
    domain.await_ready(group)
    host = world.add_host("flooder")
    orb = Orb(world, host, request_timeout=None)
    ior = pool.ior_for(group, "flooder")
    stub = orb.string_to_object(ior.to_string(), group.interface)
    promises = [stub.call("increment", 1) for _ in range(8)]
    world.scheduler.run_until(lambda: all(p.done for p in promises),
                              timeout=300)
    served = sorted(p.result() for p in promises if not p.failed)
    sheds = [p.error for p in promises if p.failed]
    world.run(until=world.now + 1.0)
    return served, sheds, domain, group


def test_admission_control_sheds_with_transient(world):
    served, sheds, domain, group = flood(world)
    assert served and sheds
    assert len(served) + len(sheds) == 8
    for exc in sheds:
        assert "Transient" in str(exc)
    # Served requests executed exactly once each; shed ones not at all.
    assert set(replica_counts(domain, group).values()) == {len(served)}
    snapshot = world.metrics.snapshot()
    assert snapshot["gateway.adm.shed"]["value"] == len(sheds)
    assert snapshot["pool.admission.shed"]["value"] == len(sheds)
    assert snapshot["pool.admission.served"]["value"] == len(served)


def test_admission_shedding_is_deterministic():
    from repro import World
    outcomes = []
    for _ in range(2):
        world = World(seed=99)
        served, sheds, _, _ = flood(world)
        snapshot = world.metrics.snapshot()
        pool_metrics = {name: data for name, data in snapshot.items()
                        if name.startswith(("pool.", "gateway.adm."))}
        outcomes.append((served, len(sheds), pool_metrics))
    assert outcomes[0] == outcomes[1]


def test_mux_clients_share_one_connection(world):
    domain, pool = make_pool(world, size=1)
    group = make_counter_group(domain)
    domain.await_ready(group)
    host = world.add_host("muxhost")
    orb = Orb(world, host, request_timeout=None)
    clients = 5
    stubs = []
    for i in range(clients):
        layer = FtClientLayer(orb, client_uid=f"mux/{i}")
        ior = pool.ior_for(group, f"mux/{i}#1")
        stubs.append(layer.string_to_object(ior.to_string(), group.interface,
                                            multiplexed=True))
    for i, stub in enumerate(stubs):
        assert world.await_promise(stub.call("increment", 1),
                                   timeout=240) == i + 1
    # One shared TCP connection carries every logical client identity.
    gateway = pool.gateways[0]
    carrying = [ids for ids in gateway._conn_clients.values() if ids]
    assert len(carrying) == 1
    assert len(carrying[0]) == clients
    assert set(replica_counts(domain, group).values()) == {clients}


# ----------------------------------------------------------------------
# The farm under open-loop load (E16: section 3.5 scaled out)
# ----------------------------------------------------------------------
#
# Every arrival is its own logical client (unique ``uid#incarnation``),
# multiplexed over a handful of client hosts and pooled connections,
# with the seeded arrival schedule injected through post_batch cohorts.
# The Totem token quota is raised to 64 messages per visit so the
# ring's flow control does not bind before the gateways do, and each
# gateway runs a tight admission window (8 in flight, queue of 16) so
# the pool, not the ring, is the measured bottleneck.

FARM_CLIENT_HOSTS = 4


def run_farm(pool_size, arrivals, horizon_s, interarrival="exponential"):
    """Drive ``arrivals`` logical clients at ``arrivals / horizon_s``
    per second into a pool of ``pool_size`` gateways."""
    world = World(seed=4200 + pool_size)
    domain = FaultToleranceDomain(
        world, "dom", num_hosts=3,
        totem_config=TotemConfig(max_messages_per_token=64))
    pool = GatewayPool(domain, size=pool_size, admission_window=8,
                       admission_queue_limit=16)
    domain.await_stable()
    group = ready_counter_group(domain)
    orbs = [Orb(world, world.add_host(f"farmhost{i}"), request_timeout=None)
            for i in range(FARM_CLIENT_HOSTS)]

    def make_stub(index):
        uid = f"farm/{index}"
        key = f"{uid}#1"
        # The farm dispatcher's admission-aware pick: exercises the
        # consistent-hash ring, breaker gating and least-connections
        # fallback for every arrival (the data path itself follows the
        # pool-aware IOR profile order below).
        pool.route(key)
        orb = orbs[zlib.crc32(uid.encode("utf-8")) % FARM_CLIENT_HOSTS]
        layer = FtClientLayer(orb, client_uid=uid)
        return layer.string_to_object(pool.ior_for(group, key).to_string(),
                                      group.interface, multiplexed=True)

    result = farm_open_loop(world, make_stub, arrivals, arrivals / horizon_s,
                            seed=7, interarrival=interarrival)
    world.run(until=world.now + 0.5)
    result["pool"] = pool
    result["metrics"] = world.metrics
    return result


def test_farm_head_count_single_gateway():
    """10^4 logical clients through one gateway, heavy-tailed
    (bounded-Pareto) arrivals: every arrival is served or deliberately
    shed, none lost, and the identity bookkeeping holds one distinct
    client id per arrival over four connections."""
    arrivals = 10_000
    farm = run_farm(1, arrivals, horizon_s=2.0, interarrival="pareto")
    # Conservation: every arrival is either served or deliberately shed
    # by admission control — never silently lost and never failed with
    # anything but the TRANSIENT shed.
    assert farm["served"] + farm["shed"] == arrivals
    assert farm["failed"] == 0
    assert farm["served"] > 1_000
    # Identity multiplexing: distinct logical client ids arrive over a
    # handful of pooled TCP connections.
    gateway = farm["pool"].gateways[0]
    assert sum(len(members)
               for members in gateway._conn_clients.values()) == arrivals
    assert gateway.stats["clients_connected"] == FARM_CLIENT_HOSTS
    # The bulk paths actually carried the load: post_batch at the
    # arrival injector (sched.post.batched counts those arrivals alone),
    # and the Totem fan-out's one event per delay group
    # (totem.broadcast.batched_deliveries counts its per-target
    # deliveries).
    assert farm["metrics"].value("sched.post.batched") > 0
    assert farm["metrics"].value("totem.broadcast.batched_deliveries") > 0


def test_farm_scaling_curve():
    """The same offered load (10 000 arrivals/s) against pools of 1, 2,
    4 and 8 gateways."""
    arrivals = 2_000
    curve = {k: run_farm(k, arrivals, horizon_s=0.2) for k in (1, 2, 4, 8)}
    for k, farm in curve.items():
        assert farm["served"] + farm["shed"] == arrivals, k
        assert farm["failed"] == 0, k
        assert farm["served"] > 0, k
    # The acceptance bar: >= 1.5x sustained throughput at 4 gateways
    # vs 1 under identical offered load.
    tput = {k: farm["served"] / farm["span"] for k, farm in curve.items()}
    assert tput[4] >= 1.5 * tput[1], tput
    # Widening the pool reduces the shed (lost-load) rate.
    assert curve[8]["shed"] < curve[1]["shed"]
