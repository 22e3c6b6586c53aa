"""Integration tests: unreplicated clients through the gateway (Fig. 3, 5)."""

import pytest

from repro import Orb, ReplicationStyle, World
from repro.errors import CorbaSystemException, InvocationFailure, ObjectNotExist
from repro.iiop import Ior

from tests.helpers import (
    counters_from_here,
    external_client,
    make_counter_group,
    make_domain,
    ready_counter_group,
    replica_counts,
)


def test_plain_client_invokes_replicated_server(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    assert world.await_promise(stub.call("increment", 7)) == 7
    assert world.await_promise(stub.call("value")) == 7
    assert set(replica_counts(domain, group).values()) == {7}


def test_client_is_unaware_of_replication(world):
    """The IOR the client uses names the gateway, not any replica; the
    client talks plain IIOP over one TCP connection (section 3.1)."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    domain.await_ready(group)
    ior = domain.ior_for(group)
    profile = ior.primary_profile()
    assert profile.host == domain.gateways[0].host.name
    assert profile.port == domain.gateways[0].port
    replica_hosts = set(group.info().placement)
    assert profile.host not in replica_hosts


def test_duplicate_responses_suppressed_at_gateway(world):
    """Figure 3: every replica of the actively replicated server
    computes a response; the gateway delivers exactly one to the client.
    The other n-1 per operation are split between copies withdrawn at
    their sender and copies suppressed at the gateway (on a uniform LAN
    all of them are withdrawn; tests/test_sender_side_suppression.py
    makes copies cross so the gateway's share is non-zero)."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain, replicas=3)
    grown = counters_from_here(world)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    for _ in range(4):
        world.await_promise(stub.call("increment", 1))
    world.run(until=world.now + 0.2)
    assert gateway.stats["responses_delivered"] == 4
    withdrawn = grown("rm.copies.withdrawn")
    assert withdrawn + gateway.stats["duplicates_suppressed"] == 8  # (3-1) x 4
    assert world.metrics.value("gateway.resp.received") == 12 - withdrawn


def test_gateway_spawns_socket_per_client(world):
    """Section 3.1: one dedicated socket per client, original socket
    keeps listening."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    stubs = []
    for i in range(4):
        _, stub, _ = external_client(world, domain, group, enhanced=False,
                                     host_name=f"client{i}")
        stubs.append(stub)
    promises = [stub.call("increment", 1) for stub in stubs]
    world.run_until_done(promises, timeout=240)
    assert gateway.stats["clients_connected"] == 4
    assert world.await_promise(stubs[0].call("value")) == 4


def test_counter_client_ids_assigned_per_server_group(world):
    """Section 3.2: the gateway keeps one counter per destination server
    group; two plain clients of the same group get consecutive ids, and
    the first client of another group is that group's client 1 — a
    different client, with its own reply."""
    domain = make_domain(world, gateways=1)
    a = make_counter_group(domain, name="A")
    b = make_counter_group(domain, name="B")
    gateway = domain.gateways[0]
    replies = []
    for i, group in enumerate((a, a, b)):
        _, stub, _ = external_client(world, domain, group, enhanced=False,
                                     host_name=f"client{i}")
        replies.append(world.await_promise(stub.call("increment", 10 ** i)))
    assert replies == [1, 11, 100]
    assert set(gateway._counters) == {a.group_id, b.group_id}
    base = gateway.index * 1_000_000
    assert sorted(gateway._routing) == sorted([
        (a.group_id, base + 1), (a.group_id, base + 2),
        (b.group_id, base + 1)])


# ----------------------------------------------------------------------
# E10: one invocation, one identity — (server group, client id, op id)
# ----------------------------------------------------------------------

def plain_stub(world, domain, orb, group):
    return orb.string_to_object(domain.ior_for(group).to_string(),
                                group.interface)


def test_plain_clients_of_two_groups_get_their_own_replies(world):
    """Each plain ORB is client 1 of its own server group at the one
    gateway: B's client must get B's reply, not A's, and B's increment
    must run."""
    domain = make_domain(world, gateways=1)
    a = make_counter_group(domain, name="A")
    b = make_counter_group(domain, name="B")
    _, stub_a, _ = external_client(world, domain, a, enhanced=False,
                                   host_name="client-a")
    _, stub_b, _ = external_client(world, domain, b, enhanced=False,
                                   host_name="client-b")
    assert world.await_promise(stub_a.call("increment", 5)) == 5
    assert world.await_promise(stub_b.call("increment", 1)) == 1
    world.run(until=world.now + 0.2)
    assert set(replica_counts(domain, a).values()) == {5}
    assert set(replica_counts(domain, b).values()) == {1}


def test_plain_orb_calling_a_second_group_is_a_new_client_there(world):
    """A plain ORB that called A and then calls B takes a counter id in
    B's space (section 3.2), so it is never confused with the client
    that already holds its A id in B's space: every reply and every
    increment is its own."""
    domain = make_domain(world, gateways=1)
    a = make_counter_group(domain, name="A")
    b = make_counter_group(domain, name="B")
    first = Orb(world, world.add_host("first"), request_timeout=None)
    second = Orb(world, world.add_host("second"), request_timeout=None)
    first_a, first_b = (plain_stub(world, domain, first, g) for g in (a, b))
    second_b = plain_stub(world, domain, second, b)
    assert world.await_promise(first_a.call("increment", 7)) == 7
    assert world.await_promise(second_b.call("increment", 1)) == 1
    assert world.await_promise(second_b.call("increment", 2)) == 3
    assert world.await_promise(first_b.call("increment", 1000)) == 1003
    world.run(until=world.now + 0.2)
    assert set(replica_counts(domain, a).values()) == {7}
    assert set(replica_counts(domain, b).values()) == {1003}
    gateway = domain.gateways[0]
    base = gateway.index * 1_000_000
    assert sorted(gateway._routing) == sorted([
        (a.group_id, base + 1), (b.group_id, base + 1),
        (b.group_id, base + 2)])


@pytest.mark.parametrize("crash_ms", [None, 0, 20, 50, 90, 120],
                         ids=lambda ms: "no_crash" if ms is None
                         else f"gateway0_crash_at_{ms}ms")
def test_enhanced_client_of_two_groups_gets_each_reply_once(crash_ms):
    """One enhanced client identity, one stub (and connection) per
    server group, both calls in flight at once: each reply goes out on
    its own group's connection and each increment runs exactly once —
    also when gateway 0 crashes while the calls are in flight and both
    stubs fail over to the mirrored gateway 1."""
    from repro import FtClientLayer
    world = World(seed=5)
    domain = make_domain(world, gateways=2)
    a = make_counter_group(domain, name="A")
    b = make_counter_group(domain, name="B")
    domain.await_ready(a)
    domain.await_ready(b)
    orb = Orb(world, world.add_host("browser"), request_timeout=None)
    layer = FtClientLayer(orb, client_uid="two/groups")
    stub_a, stub_b = (
        layer.string_to_object(domain.ior_for(g).to_string(), g.interface)
        for g in (a, b))
    calls = [stub_a.call("increment", 5), stub_b.call("increment", 1)]
    if crash_ms is not None:
        world.faults.crash_host(domain.gateways[0].host.name,
                                at=world.now + crash_ms / 1000)
    world.run_until_done(calls, timeout=30)
    assert [call.result() for call in calls] == [5, 1]
    world.run(until=world.now + 0.5)
    assert set(replica_counts(domain, a).values()) == {5}
    assert set(replica_counts(domain, b).values()) == {1}


def test_enhanced_client_ids_come_from_service_context(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    assert list(gateway._routing) == [(group.group_id,
                                       f"{layer.client_uid}#1")]


def test_user_exception_travels_through_gateway(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group)
    world.await_promise(stub.call("decrement", 3))
    with pytest.raises(InvocationFailure):
        world.await_promise(stub.call("fail_if_negative"))


def test_unknown_object_key_yields_object_not_exist(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    gateway = domain.gateways[0]
    bogus = Ior.for_endpoints(group.interface.repo_id,
                              [(gateway.host.name, gateway.port)],
                              b"ftdomain/dom/9999")
    stub = orb.string_to_object(bogus, group.interface)
    with pytest.raises(CorbaSystemException):
        world.await_promise(stub.call("value"))
    assert gateway.stats["bad_object_key"] == 1


def test_foreign_domain_key_rejected(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    gateway = domain.gateways[0]
    foreign = Ior.for_endpoints(group.interface.repo_id,
                                [(gateway.host.name, gateway.port)],
                                b"ftdomain/otherdomain/10")
    stub = orb.string_to_object(foreign, group.interface)
    with pytest.raises(CorbaSystemException):
        world.await_promise(stub.call("value"))


def test_gateway_serves_passive_groups_too(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE)
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("increment", 2)) == 2
    assert world.await_promise(stub.call("value")) == 2


def test_gateway_serves_voting_groups(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain,
                               style=ReplicationStyle.ACTIVE_WITH_VOTING)
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("increment", 2)) == 2
    # Corrupt one replica; the gateway's vote collection masks it.
    faulty = group.info().placement[0]
    domain.rms[faulty].replicas[group.group_id].servant.count = 77
    assert world.await_promise(stub.call("value")) == 2


def test_two_clients_interleaved_requests_route_correctly(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _, stub_a, _ = external_client(world, domain, group, host_name="alice")
    _, stub_b, _ = external_client(world, domain, group, host_name="bob")
    promises = []
    for i in range(5):
        promises.append(stub_a.call("increment", 1))
        promises.append(stub_b.call("increment", 1))
    world.run_until_done(promises, timeout=240)
    assert sorted(p.result() for p in promises) == list(range(1, 11))


def test_client_disconnect_cleans_gateway_state(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    orb, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1))
    # Close the client's connection; gateways purge per-client state.
    connection = orb._connections[next(iter(orb._connections))]
    connection.close()
    world.run(until=world.now + 0.5)
    assert gateway.stats["clients_gone"] >= 1
    assert not gateway._routing


def test_nested_serving_group_reachable_through_gateway(world):
    """A client invokes a group whose servant fans out nested calls."""
    from repro.apps import (ACCOUNT_INTERFACE, AccountServant,
                            LEDGER_INTERFACE, LedgerServant,
                            TRANSFER_INTERFACE, TransferAgentServant)
    domain = make_domain(world, num_hosts=4, gateways=1)
    accounts = domain.create_group("Accounts", ACCOUNT_INTERFACE,
                                   AccountServant)
    domain.create_group("Ledger", LEDGER_INTERFACE, LedgerServant)
    agent = domain.create_group("Transfers", TRANSFER_INTERFACE,
                                TransferAgentServant)
    world.await_promise(accounts.invoke("deposit", "alice", 100))
    _, stub, _ = external_client(world, domain, agent)
    assert world.await_promise(
        stub.call("transfer", "alice", "bob", 25), timeout=240) == 25
    assert world.await_promise(accounts.invoke("balance", "bob")) == 25


# ----------------------------------------------------------------------
# One gateway multiplexing many TCP clients (E10, section 3.2)
# ----------------------------------------------------------------------

SCALING_REQUESTS = 24


def run_clients(num_clients):
    """24 increments split across ``num_clients`` plain clients, each
    working sequentially (next request on completion)."""
    world = World(seed=1000 + num_clients)
    domain = make_domain(world, gateways=1)
    group = ready_counter_group(domain)
    promises = []

    def issue_chain(stub, remaining):
        promise = stub.call("increment", 1)
        promises.append(promise)
        if remaining > 1:
            promise.on_done(lambda _p: issue_chain(stub, remaining - 1))

    stubs = [external_client(world, domain, group, enhanced=False,
                             host_name=f"client{i}")[1]
             for i in range(num_clients)]
    t0 = world.now
    for stub in stubs:
        issue_chain(stub, SCALING_REQUESTS // num_clients)
    world.scheduler.run_until(
        lambda: len(promises) == SCALING_REQUESTS and
        all(p.done for p in promises), timeout=600)
    elapsed = world.now - t0
    world.run(until=world.now + 0.5)
    return elapsed, domain.gateways[0], [p.result() for p in promises]


@pytest.mark.parametrize("clients", [1, 2, 4, 8])
def test_gateway_scaling_clients(clients):
    _, gateway, results = run_clients(clients)
    assert len({cid for carried in gateway._conn_clients.values()
                for cid in carried}) == clients
    assert gateway.stats["responses_delivered"] == SCALING_REQUESTS
    assert gateway.stats["responses_unroutable"] == 0
    # The total order serialised all updates.
    assert sorted(results) == list(range(1, SCALING_REQUESTS + 1))


def test_gateway_scaling_concurrency_amortises_latency():
    """8 clients issue the same total workload concurrently: simulated
    completion must drop substantially vs 1 client."""
    assert run_clients(8)[0] < run_clients(1)[0] * 0.7
