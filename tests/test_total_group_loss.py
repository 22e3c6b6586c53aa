"""Every replica of a group dies: a typed failure, never a hang.

ROADMAP aim 3: "total group loss … end in a bounded, traced, typed
failure — never a hang, a leak".  Whoever waits on the lost group's
response — a gateway client, a nested caller, the ambassador — gets
``TRANSIENT`` at the membership install that reports the loss (or at
once, for a call issued after it), whatever the group's replication
style, and nothing held for the call survives.
"""

import pytest

from repro import FaultToleranceDomain, ReplicationStyle
from repro.apps import (
    ACCOUNT_INTERFACE,
    AccountServant,
    LEDGER_INTERFACE,
    LedgerServant,
    TRANSFER_INTERFACE,
    TransferAgentServant,
)
from repro.errors import CorbaSystemException, TransientError

from tests.helpers import (
    SLOW_TOTEM,
    external_client,
    make_counter_group,
    make_domain,
)

STYLES = [ReplicationStyle.ACTIVE, ReplicationStyle.ACTIVE_WITH_VOTING,
          ReplicationStyle.WARM_PASSIVE, ReplicationStyle.LEADER_FOLLOWER]


def by_value(style):
    return style.value


def crash(world, hosts):
    for host in hosts:
        world.faults.crash_now(host)


def assert_transient(world, promise):
    with pytest.raises(CorbaSystemException) as exc:
        world.await_promise(promise, timeout=600)
    assert "Transient" in str(exc.value)


@pytest.mark.parametrize("style", STYLES, ids=by_value)
def test_gateway_client_of_a_lost_group_gets_transient(world, style):
    """All three replica hosts of a three-host domain crash (nowhere to
    re-create the group) while both gateway hosts live on: the call in
    flight at the loss and the call issued after it both end in
    TRANSIENT, and both gateways let go of everything — admission slots
    included."""
    domain = FaultToleranceDomain(world, "dom", totem_config=SLOW_TOTEM)
    for _ in range(2):
        domain.add_gateway().arm_admission(4, 64)
    domain.await_stable()
    group = make_counter_group(domain, style=style, min_replicas=1)
    domain.await_ready(group)
    origin = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    assert world.await_promise(stub.call("increment", 1)) == 1

    # In flight at the loss: the request is still on the WAN when the
    # hosts die and reaches the gateway before the ring has noticed, so
    # it is forwarded into a group that will never answer.
    doomed = stub.call("increment", 1)
    world.run(until=world.now + 0.01)
    crash(world, group.info().placement)
    assert_transient(world, doomed)
    assert origin.stats["requests_forwarded"] == 2

    # Issued after the loss: refused on arrival, never forwarded.
    world.run(until=world.now + 1.0)
    assert_transient(world, stub.call("increment", 1))
    assert origin.stats["requests_forwarded"] == 2
    assert origin.stats["requests_unservable"] == 2

    world.run(until=world.now + 5.0)
    for gateway in domain.gateways:
        assert gateway._filter.pending_count == 0
        assert gateway._own_inflight == 0
    world.audit(strict=True)


def make_bank(world, style):
    """Accounts on three hosts of six (and not to be re-created
    elsewhere); its callers, the managers and the driver on the other
    three."""
    domain = make_domain(world, num_hosts=6)
    survivors, doomed = (domain.replica_host_names[:3],
                         domain.replica_host_names[3:])
    accounts = domain.create_group("Accounts", ACCOUNT_INTERFACE,
                                   AccountServant, style=style,
                                   placement=doomed, min_replicas=0)
    domain.create_group("Ledger", LEDGER_INTERFACE, LedgerServant,
                        style=style, placement=survivors)
    agent = domain.create_group("Transfers", TRANSFER_INTERFACE,
                                TransferAgentServant, style=style,
                                placement=survivors)
    world.await_promise(accounts.invoke("deposit", "alice", 100))
    return domain, accounts, agent, doomed


def assert_no_waits(world, domain):
    world.run(until=world.now + 5.0)
    for rm in domain.rms.values():
        if rm.alive:
            assert rm._response_filter.pending_count == 0
    world.audit(strict=True)


@pytest.mark.parametrize("style", STYLES, ids=by_value)
def test_nested_caller_of_a_lost_group_gets_transient(world, style):
    """A ``transfer`` whose nested ``withdraw`` targets the lost group:
    the TRANSIENT is raised inside the suspended execution, so the
    caller's own reply carries it."""
    domain, _, agent, doomed = make_bank(world, style)
    # In flight at the loss: the withdraw executes but its response is
    # still to come when the hosts die.
    for host in doomed:
        domain.rms[host]._respond = (
            lambda invocation, reply, carried=None: None)
    transfer = agent.invoke("transfer", "alice", "bob", 10)
    world.run(until=world.now + 0.5)
    assert any(rm._response_filter.waiters() for rm in domain.rms.values())
    crash(world, doomed)
    assert_transient(world, transfer)
    # Issued after the loss: the nested call is refused as it is made.
    world.run(until=world.now + 1.0)
    refused = world.metrics.value("rm.invoke.unservable")
    assert_transient(world, agent.invoke("transfer", "alice", "bob", 10))
    assert world.metrics.value("rm.invoke.unservable") > refused
    assert_no_waits(world, domain)


@pytest.mark.parametrize("style", STYLES, ids=by_value)
def test_ambassador_invocation_of_a_lost_group_gets_transient(world, style):
    domain, accounts, _, doomed = make_bank(world, style)
    rm = domain.coordinator_rm()
    in_flight = rm.external_invoke(accounts.group_id, "balance", ["alice"],
                                   client_uid="driver/test", request_seq=1)
    crash(world, doomed)
    with pytest.raises(TransientError):
        world.await_promise(in_flight, timeout=600)
    world.run(until=world.now + 1.0)
    after = rm.external_invoke(accounts.group_id, "balance", ["alice"],
                               client_uid="driver/test", request_seq=2)
    assert after.failed and isinstance(after.error, TransientError)
    assert_no_waits(world, domain)
