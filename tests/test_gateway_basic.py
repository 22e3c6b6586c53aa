"""Integration tests: unreplicated clients through the gateway (Fig. 3, 5)."""

import pytest

from repro import Orb, ReplicationStyle, World
from repro.errors import CorbaSystemException, InvocationFailure, ObjectNotExist
from repro.iiop import Ior

from tests.helpers import (
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
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    for _ in range(4):
        world.await_promise(stub.call("increment", 1))
    world.run(until=world.now + 0.2)
    assert gateway.stats["responses_delivered"] == 4
    withdrawn = world.metrics.value("rm.copies.withdrawn")
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
    group; two plain clients of the same group get consecutive ids."""
    domain = make_domain(world, gateways=1)
    a = make_counter_group(domain, name="A")
    b = make_counter_group(domain, name="B")
    gateway = domain.gateways[0]
    for i, group in enumerate((a, a, b)):
        _, stub, _ = external_client(world, domain, group, enhanced=False,
                                     host_name=f"client{i}")
        world.await_promise(stub.call("increment", 1))
    assert set(gateway._counters) == {a.group_id, b.group_id}
    ids = sorted(cid for cid in gateway._routing if isinstance(cid, int))
    base = gateway.index * 1_000_000
    assert ids == [base + 1, base + 2]  # two clients of group A; B reuses 1


def test_enhanced_client_ids_come_from_service_context(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    uids = [cid for cid in gateway._routing if isinstance(cid, str)]
    assert uids == [f"{layer.client_uid}#1"]


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
    world = World(seed=1000 + num_clients, trace=False)
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
