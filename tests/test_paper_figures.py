"""The paper's figures and failure arguments, regenerated in simulation.

The paper has no quantitative evaluation: its results are Figures 1-6
and the failure arguments of sections 3.4 and 3.5.  Each test below
drives one of them on a seeded world and asserts its shape on
simulated time and counts (EXPERIMENTS.md, E1-E8, records the
numbers).  Latency model: 0.5 ms LAN hop inside a domain, 40 ms WAN
hop between sites, so one WAN round trip is 80 ms.
"""

import contextlib

import pytest

from repro import (
    CommFailure,
    FaultToleranceDomain,
    FtClientLayer,
    Orb,
    ReplicationStyle,
    World,
)
from repro.apps import (
    ACCOUNT_INTERFACE,
    COUNTER_INTERFACE,
    LEDGER_INTERFACE,
    QUOTE_INTERFACE,
    SETTLEMENT_INTERFACE,
    TRADING_INTERFACE,
    TRANSFER_INTERFACE,
    AccountServant,
    CounterServant,
    LedgerServant,
    QuoteServant,
    SettlementServant,
    TradingDeskServant,
    TransferAgentServant,
)
from repro.core import OperationId, encode_multicast_message, header_overhead
from repro.iiop import RequestMessage, encode_request
from repro.iiop.service_context import ClientIdContext

from tests.helpers import (
    counters_from_here,
    crash_gateway_on_response,
    external_client,
    make_domain,
    ready_counter_group,
    replica_counts,
)

WAN_ROUND_TRIP = 0.080


# ======================================================================
# E1 (Figure 1): the multi-domain topology
# ======================================================================

def build_figure1_world(seed=1, la_gateways=1):
    """A Santa Barbara customer invokes a New York replicated trading
    desk through NY's gateway; buy orders cross the wide area to a Los
    Angeles settlement domain through LA's gateway."""
    world = World(seed=seed)
    la = FaultToleranceDomain(world, "la", num_hosts=3)
    for _ in range(la_gateways):
        la.add_gateway(port=2809)
    settlement = la.create_group("Settlement", SETTLEMENT_INTERFACE,
                                 SettlementServant,
                                 style=ReplicationStyle.ACTIVE)
    la.await_stable()
    la.await_ready(settlement)
    settlement_ior = la.ior_for(settlement).to_string()

    ny = FaultToleranceDomain(world, "ny", num_hosts=3)
    ny.add_gateway(port=2809)
    ny.register_interface(SETTLEMENT_INTERFACE)
    ny.create_group("Quotes", QUOTE_INTERFACE,
                    lambda: QuoteServant({"ACME": 1500}),
                    style=ReplicationStyle.ACTIVE)
    desk = ny.create_group(
        "Desk", TRADING_INTERFACE,
        lambda: TradingDeskServant(quote_group="Quotes",
                                   settlement_target=settlement_ior,
                                   settlement_interface="Settlement"),
        style=ReplicationStyle.ACTIVE)
    ny.await_stable()

    browser = world.add_host("sb-browser")
    orb = Orb(world, browser, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="customer/sb")
    stub = layer.string_to_object(ny.ior_for(desk).to_string(),
                                  TRADING_INTERFACE)
    return world, la, settlement, stub


def settled_counts(la, settlement):
    return {rm.replicas[settlement.group_id].servant.settled_count()
            for rm in la.rms.values()
            if settlement.group_id in rm.replicas and rm.alive}


def test_fig1_multidomain_topology():
    world, la, settlement, stub = build_figure1_world()
    t0 = world.now
    world.await_promise(stub.call("position", "alice", "ACME"), timeout=600)
    local_latency = world.now - t0
    t0 = world.now
    world.await_promise(stub.call("buy", "alice", "ACME", 100), timeout=600)
    cross_latency = world.now - t0
    world.run(until=world.now + 1.0)
    # Shape: the cross-domain op pays >= 1 extra WAN round trip (80 ms).
    assert cross_latency > local_latency + 0.06
    # Exactly-once settlement across the domain boundary.
    assert settled_counts(la, settlement) == {1}


def test_fig1_gateway_failures_do_not_break_the_path():
    world, la, settlement, stub = build_figure1_world(seed=2, la_gateways=2)
    world.await_promise(stub.call("buy", "alice", "ACME", 1), timeout=600)
    world.faults.crash_now(la.gateways[0].host.name)
    # New orders keep settling through the redundant LA gateway — the
    # desk's egress traverses the multi-profile IOR.
    world.await_promise(stub.call("buy", "alice", "ACME", 2), timeout=600)
    world.run(until=world.now + 1.0)
    assert settled_counts(la, settlement) == {2}


# ======================================================================
# E2 (Figure 2): the cost of the Eternal infrastructure's path
# ======================================================================

FIG2_OPERATIONS = 20


def plain_orb_latency():
    """Baseline: unreplicated client -> unreplicated server, same LAN —
    the direct IIOP TCP hop Eternal replaces."""
    world = World(seed=5)
    server_host = world.add_host("server", site="lan")
    client_host = world.add_host("client", site="lan")
    server_orb = Orb(world, server_host)
    server_orb.listen(9000)
    ior = server_orb.activate_object(CounterServant())
    client_orb = Orb(world, client_host, request_timeout=None)
    stub = client_orb.string_to_object(ior.to_string(), COUNTER_INTERFACE)
    world.await_promise(stub.call("increment", 1))  # connection setup
    t0 = world.now
    for _ in range(FIG2_OPERATIONS):
        world.await_promise(stub.call("increment", 1))
    return (world.now - t0) / FIG2_OPERATIONS


def replicated_latency(degree):
    """Replicated path: driver -> RM -> Totem -> replicas -> responses."""
    world = World(seed=5)
    domain = make_domain(world, num_hosts=max(3, degree))
    group = ready_counter_group(domain, replicas=degree)
    world.await_promise(group.invoke("increment", 1))
    t0 = world.now
    for _ in range(FIG2_OPERATIONS):
        world.await_promise(group.invoke("increment", 1))
    return (world.now - t0) / FIG2_OPERATIONS


def test_fig2_plain_orb_baseline():
    assert plain_orb_latency() < 0.01


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_fig2_replicated_invocation_path(degree):
    latency = replicated_latency(degree)
    baseline = plain_orb_latency()
    # Shape: the total-order path costs more than a raw TCP hop but
    # stays within a small constant factor, and does not explode with
    # the replication degree (all replicas are reached by ONE multicast).
    assert latency > baseline
    assert latency < baseline * 40


def test_fig2_degree_scaling_is_flat():
    """Adding replicas must not multiply the invocation latency: the
    multicast reaches all of them in one total-order slot."""
    assert replicated_latency(5) < replicated_latency(1) * 2.5


# ======================================================================
# E3 (Figure 3): duplicate response suppression
# ======================================================================
#
# An actively replicated server of degree n computes n responses per
# invocation; the unreplicated client must receive exactly one.  The
# Figure 4 operation identifier makes a copy recognisable anywhere: a
# replica whose copy is still in its Totem send queue when a sibling's
# identical copy is delivered withdraws it, and every copy that does
# reach the ring passes the gateway's DuplicateSuppressor.

FIG3_REQUESTS = 10

# (row label, degree, style, sibling link made slower than the token
#  path, then per request: copies on the wire, suppressed at gateway)
FIG3_CASES = [
    ("lan-1", 1, ReplicationStyle.ACTIVE, None, 1, 0),
    ("lan-2", 2, ReplicationStyle.ACTIVE, None, 1, 0),
    ("lan-3", 3, ReplicationStyle.ACTIVE, None, 1, 0),
    ("lan-5", 5, ReplicationStyle.ACTIVE, None, 1, 0),
    # h0's and h2's copies cross; h1 withdraws.
    ("crossing-3", 3, ReplicationStyle.ACTIVE, ("dom-h0", "dom-h2"), 2, 1),
    # Voting keeps all n: one pending, one completes the majority, one late.
    ("voting-3", 3, ReplicationStyle.ACTIVE_WITH_VOTING, None, 3, 1),
]


@pytest.mark.parametrize("label,degree,style,slow_pair,on_wire,suppressed",
                         FIG3_CASES, ids=[case[0] for case in FIG3_CASES])
def test_fig3_duplicate_suppression(label, degree, style, slow_pair,
                                    on_wire, suppressed):
    world = World(seed=100 + degree)
    domain = make_domain(world, num_hosts=max(3, degree), gateways=1)
    group = ready_counter_group(domain, style=style, replicas=degree)
    grown = counters_from_here(world)
    if slow_pair is not None:
        # Ring order is gw0, h0, h1, h2: the token needs 1.4 ms from h0
        # to h2 via h1, h0's broadcast now needs 3 ms to get there.
        world.network.latency_model.set_pair(*slow_pair, 0.003)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    for _ in range(FIG3_REQUESTS):
        world.await_promise(stub.call("increment", 1), timeout=600)
    world.run(until=world.now + 0.5)  # drain trailing duplicates
    assert set(replica_counts(domain, group).values()) == {FIG3_REQUESTS}
    gateway = domain.gateways[0]
    m = world.metrics
    withdrawn = grown("rm.copies.withdrawn")
    suppressed_at_gateway = gateway.stats["duplicates_suppressed"]
    # Paper shape: n responses per invocation, exactly 1 delivered ...
    assert grown("eternal.invocations.executed") == degree * FIG3_REQUESTS
    assert gateway.stats["responses_delivered"] == FIG3_REQUESTS
    # ... and every one of the other n-1 is accounted for, copy by copy.
    assert m.value("gateway.resp.received") == on_wire * FIG3_REQUESTS
    assert withdrawn == (degree - on_wire) * FIG3_REQUESTS
    assert suppressed_at_gateway == suppressed * FIG3_REQUESTS
    # Voting only: copies that arrived before the majority formed.
    assert (withdrawn + suppressed_at_gateway
            + m.value("gateway.resp.vote_pending")
            ) == (degree - 1) * FIG3_REQUESTS


def test_fig3_direct_access_would_diverge():
    """The inverse experiment: bypassing the gateway (invoking a single
    replica directly) violates replica consistency — the reason the
    gateway must exist (paper section 3)."""
    world = World(seed=99)
    domain = make_domain(world, gateways=1)
    group = ready_counter_group(domain, replicas=3)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1), timeout=600)
    # Direct single-replica access, as a TCP connection to one
    # replica's host would do.
    lone = domain.rms[group.info().placement[0]].replicas[group.group_id]
    lone.servant.increment(10)
    # Inconsistent replication.
    assert len(set(replica_counts(domain, group).values())) > 1


# ======================================================================
# E4 (Figure 4): message formats and header overhead
# ======================================================================

def representative_request(enhanced=False):
    contexts = []
    if enhanced:
        contexts.append(ClientIdContext("customer/sb/1").to_service_context())
    return encode_request(RequestMessage(
        request_id=42,
        response_expected=True,
        object_key=b"ftdomain/trading/10",
        operation="buy",
        service_contexts=contexts,
        body=b"\x00" * 24,
    ))


def test_fig4_format_sizes():
    """Bytes per layout: (a) client <-> gateway (bare IIOP), with and
    without the enhanced client's id, and (b) gateway -> domain
    (multicast header + FT/gateway header + IIOP)."""
    plain_iiop = representative_request(enhanced=False)
    enhanced_iiop = representative_request(enhanced=True)
    gateway_to_domain = encode_multicast_message(
        client_id=7, source_group=1, target_group=10,
        op_id=OperationId(0, 42), timestamp=0, iiop=plain_iiop,
        ring_generation=1, sequence_number=120, sender="gw0")
    # Shapes: the FT/gateway header is a small constant (tens of bytes);
    # layouts (b) and (c) are the IIOP message plus bounded headers; the
    # enhanced client's service context costs a few dozen bytes.
    assert header_overhead(7) <= 64
    assert len(gateway_to_domain) < 2 * len(plain_iiop)
    assert 8 <= len(enhanced_iiop) - len(plain_iiop) <= 96


# ======================================================================
# E5 (Figure 5): the gateway's per-message action loops
# ======================================================================
#
# Per incoming IIOP message: obtain client id, map socket, generate
# identifiers, build header, multicast.  Per incoming multicast: extract
# identifier, dedup, find socket, forward reply.

FIG5_BATCH = 25


def build_fig5():
    world = World(seed=11)
    domain = make_domain(world, gateways=1)
    group = ready_counter_group(domain)
    grown = counters_from_here(world)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1), timeout=600)  # warm up
    return world, domain, stub, grown


def test_fig5_simulated_client_latency():
    world, domain, stub, _ = build_fig5()
    t0 = world.now
    for _ in range(FIG5_BATCH):
        world.await_promise(stub.call("increment", 1), timeout=600)
    per_request = (world.now - t0) / FIG5_BATCH
    # Two WAN hops (client->gw, gw->client) bound the latency from
    # below; the domain adds about one token rotation.
    assert per_request >= WAN_ROUND_TRIP
    assert per_request < 3 * WAN_ROUND_TRIP


def test_fig5_pipelined_requests_throughput():
    """Clients may pipeline: many requests in flight on one connection.
    Simulated completion time per request drops well below the RTT."""
    world, domain, stub, _ = build_fig5()
    t0 = world.now
    promises = [stub.call("increment", 1) for _ in range(FIG5_BATCH)]
    world.run_until_done(promises, timeout=600)
    assert (world.now - t0) / FIG5_BATCH < WAN_ROUND_TRIP


def test_fig5_gateway_action_counters():
    """Every Figure 5 action leaves a countable trace."""
    world, domain, stub, grown = build_fig5()
    for _ in range(10):
        world.await_promise(stub.call("increment", 1), timeout=600)
    world.run(until=world.now + 0.5)
    stats = domain.gateways[0].stats
    assert stats["requests_received"] == 11      # warm-up + 10
    assert stats["requests_forwarded"] == 11
    assert stats["responses_delivered"] == 11
    # "Extract identifier, dedup" ran on every copy that reached the
    # ring; of the 2 redundant copies per request (3 replicas) the ones
    # withdrawn at their sender never did.
    assert world.metrics.value("gateway.resp.received") == (
        stats["responses_delivered"] + stats["duplicates_suppressed"])
    assert (grown("rm.copies.withdrawn")
            + stats["duplicates_suppressed"]) == 22
    assert stats["clients_connected"] == 1


# ======================================================================
# E6 (Figure 6): identifier assignment across nested invocations
# ======================================================================

def test_fig6_identifier_uniqueness_under_load():
    """Many parents, several children each: timestamps from the total
    order + per-parent child counters => globally unique operation
    identifiers (the figure's literal example is
    tests/test_identifiers.py::test_figure6_worked_example)."""
    parents = 10
    world = World(seed=66)
    domain = make_domain(world, num_hosts=4)
    accounts = domain.create_group("Accounts", ACCOUNT_INTERFACE,
                                   AccountServant)
    ledger = domain.create_group("Ledger", LEDGER_INTERFACE, LedgerServant)
    agent = domain.create_group("Transfers", TRANSFER_INTERFACE,
                                TransferAgentServant)
    world.await_promise(accounts.invoke("deposit", "alice", 10_000),
                        timeout=600)
    for _ in range(parents):
        world.await_promise(agent.invoke("transfer", "alice", "bob", 10),
                            timeout=600)
    world.run(until=world.now + 0.5)

    # Every nested operation id recorded at the Accounts group.
    rm = next(rm for rm in domain.rms.values()
              if accounts.group_id in rm.replicas)
    seen = rm._invocations_seen[accounts.group_id]
    nested = [op for (src, _, op) in seen if src == agent.group_id]
    ledger_rm = next(r for r in domain.rms.values()
                     if ledger.group_id in r.replicas)
    # Each transfer = 2 Accounts children (withdraw, deposit); all ids
    # distinct; one distinct parent timestamp per transfer.
    assert len(nested) == 2 * parents
    assert len(set(nested)) == len(nested)
    assert len({op.parent_ts for op in nested}) == parents
    assert len(ledger_rm.replicas[ledger.group_id].servant.log) == parents


# ======================================================================
# E7 (section 3.4): what gateway failure costs a plain-ORB client
# ======================================================================
#
# With existing ORBs (single usable profile, no client identification)
# the gateway is a single point of failure: an outstanding invocation
# executes inside the domain while the client sees COMM_FAILURE; a
# retry through another gateway cannot be recognised as a reinvocation;
# a response that outlives its gateway is unroutable at any peer.

def isolated_gateway_world(seed, gateways=1):
    """A plain client of a counter group behind isolated gateways (no
    gateway group): the setting of section 3.4."""
    world = World(seed=seed)
    domain = make_domain(world, gateways=gateways, mirror=False)
    group = ready_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    return world, domain, group, stub


def test_sec34_outstanding_invocation_lost():
    world, domain, group, stub = isolated_gateway_world(34)
    world.await_promise(stub.call("increment", 1), timeout=600)
    crash_gateway_on_response(world, domain.gateways[0])
    with pytest.raises(CommFailure):
        world.await_promise(stub.call("increment", 10), timeout=600)
    world.run(until=world.now + 1.0)
    # The domain executed it anyway: 1 + 10.
    assert set(replica_counts(domain, group).values()) == {11}


def test_sec34_retry_duplicates_execution():
    world, domain, group, stub = isolated_gateway_world(35)
    world.await_promise(stub.call("increment", 1), timeout=600)
    crash_gateway_on_response(world, domain.gateways[0])
    with contextlib.suppress(CommFailure):
        world.await_promise(stub.call("increment", 10), timeout=600)
    world.run(until=world.now + 1.0)
    domain.add_gateway(port=2809, mirror_requests=False)
    domain.await_stable()
    _, retry_stub, _ = external_client(world, domain, group, enhanced=False,
                                       host_name="browser2")
    world.await_promise(retry_stub.call("increment", 10), timeout=600)
    # 1 + 10 (lost) + 10 (retry) = 21, where exactly-once would give 11:
    # the duplication the paper warns of.
    assert set(replica_counts(domain, group).values()) == {21}


def test_sec34_peer_gateway_cannot_route_orphaned_response():
    world, domain, group, stub = isolated_gateway_world(36, gateways=2)
    peer = domain.gateways[1]
    crash_gateway_on_response(world, domain.gateways[0])
    with contextlib.suppress(CommFailure):
        world.await_promise(stub.call("increment", 5), timeout=600)
    world.run(until=world.now + 1.0)
    assert peer.stats["responses_unexpected"] >= 1
    assert peer.stats["responses_delivered"] == 0


# ======================================================================
# E8 (section 3.5): redundant gateways + the enhanced client layer
# ======================================================================
#
# Multi-profile IORs, a gateway group that is delivered every request
# and response, unique client identifiers, reissue on failover.

def enhanced_failover(drop_standby=False):
    """Simulated time from issuing the request whose gateway crashes to
    the client holding the response it was owed, and what it cost."""
    world = World(seed=350)
    domain = make_domain(world, gateways=2, mirror=True)
    group = ready_counter_group(domain)
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1), timeout=600)
    if drop_standby:
        # Force the cold path: with two gateways the standby has no
        # further profile to move on to.
        stub.requester.standby[1].close()
    crash_gateway_on_response(world, domain.gateways[0])
    t0 = world.now
    result = world.await_promise(stub.call("increment", 10), timeout=600)
    latency = world.now - t0
    world.run(until=world.now + 1.0)
    return {
        "result": result,
        "replica_values": set(replica_counts(domain, group).values()),
        "failover_latency_s": latency,
        "failovers": len(layer.failover_log),
        "reissued": stub.requester.stats["reissued"],
        "standby_promotions": stub.requester.stats["standby_promotions"],
    }


def test_sec35_transparent_failover_exactly_once():
    row = enhanced_failover()
    assert row["result"] == 11                # the client got its answer
    assert row["replica_values"] == {11}      # and nothing executed twice
    assert row["failovers"] >= 1
    assert row["reissued"] >= 1


def test_sec35_failover_latency_bounded():
    warm = enhanced_failover()
    cold = enhanced_failover(drop_standby=True)
    # Shape: detection (TCP close notice) + reissue + reply — two WAN
    # round trips, the request's own included; without a usable standby
    # the reconnect adds a third.  Not an unbounded outage either way.
    assert warm["standby_promotions"] == 1 and cold["standby_promotions"] == 0
    assert warm["failover_latency_s"] < cold["failover_latency_s"] < 1.0
    assert cold["failover_latency_s"] - warm["failover_latency_s"] == (
        pytest.approx(WAN_ROUND_TRIP))   # one WAN round trip: the handshake


@pytest.mark.parametrize("mirror", [False, True])
def test_sec35_mirroring_cost(mirror):
    """Multicasts per client request, with and without gateway-group
    recording — section 3.5's guarantees cost no message of their own."""
    world = World(seed=351)
    domain = make_domain(world, gateways=2, mirror=mirror)
    group = ready_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1), timeout=600)
    before = world.metrics.value("totem.msg.sent")
    for _ in range(10):
        world.await_promise(stub.call("increment", 1), timeout=600)
    world.run(until=world.now + 0.5)
    # One invocation and one response on the ring per request (the
    # other replicas withdraw their copies); the peer gateway reads the
    # request off that same invocation.
    assert (world.metrics.value("totem.msg.sent") - before) / 10 == 2


def test_sec35_second_failover_also_survived():
    world = World(seed=352)
    domain = make_domain(world, gateways=3, mirror=True)
    group = ready_counter_group(domain)
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1), timeout=600)
    world.faults.crash_now(domain.gateways[0].host.name)
    world.await_promise(stub.call("increment", 1), timeout=600)
    world.faults.crash_now(domain.gateways[1].host.name)
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 3
    assert len(layer.failover_log) >= 2
