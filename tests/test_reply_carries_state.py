"""A reply carries its state: the checkpoint a passive primary owes its
backups after an operation — after every one under WARM_PASSIVE, every
``checkpoint_interval``-th under COLD_PASSIVE — rides in the RESPONSE's
``data`` and is applied by every member hosting a replica of the
responding group, first thing on delivery.  A standalone CHECKPOINT is
multicast only where there is no reply to ride on (docs/PROTOCOL.md §3).
"""

from __future__ import annotations

from repro import ReplicationStyle, TotemConfig
from repro.apps import (
    ACCOUNT_INTERFACE,
    AccountServant,
    LEDGER_INTERFACE,
    LedgerServant,
    TRANSFER_INTERFACE,
    TransferAgentServant,
)
from repro.eternal.messages import MsgKind
from repro.sim.tcp import TcpEndpoint

from tests.helpers import (
    EVENTS,
    EventSinkServant,
    external_client,
    make_counter_group,
    make_domain,
    replica_counts,
)


def primary_of(domain, group):
    return group.info().primary(domain.coordinator_rm().live_hosts)


def replica_states(domain, group):
    """``get_state()`` of every live replica of ``group``, by host."""
    return {host: rm.replicas[group.group_id].servant.get_state()
            for host, rm in domain.rms.items()
            if rm.alive and group.group_id in rm.replicas}


def kinds_on_ring(domain, at):
    """The kind of every message delivered at member ``at``."""
    seen = []
    domain.members[at].on_deliver(
        lambda seq, sender, payload: seen.append(
            getattr(payload, "kind", None)))
    return seen


def test_warm_passive_transfer_is_eight_messages(world):
    """Figure 6 behind a gateway: the client's INVOCATION, three nested
    INVOCATIONs, their three RESPONSEs, the RESPONSE to the gateway —
    and nothing else; each RESPONSE brings the backups of the group that
    answered to the primary's state."""
    domain = make_domain(world, num_hosts=4, gateways=1)
    style = ReplicationStyle.WARM_PASSIVE
    bank = [
        domain.create_group("Accounts", ACCOUNT_INTERFACE, AccountServant,
                            style=style),
        domain.create_group("Ledger", LEDGER_INTERFACE, LedgerServant,
                            style=style),
        domain.create_group("Transfers", TRANSFER_INTERFACE,
                            TransferAgentServant, style=style),
    ]
    accounts, _, agent = bank
    world.await_promise(accounts.invoke("deposit", "alice", 100))
    _, stub, _ = external_client(world, domain, agent)
    world.await_promise(stub.call("transfer", "alice", "bob", 1))  # bound
    world.run(until=world.now + 0.2)
    m = world.metrics
    sent, carried = m.value("totem.msg.sent"), m.value("eternal.state.carried")
    transfers = 5
    for _ in range(transfers):
        world.await_promise(stub.call("transfer", "alice", "bob", 10))
        world.run(until=world.now)      # the rest of the reply's instant
        for group in bank:
            states = replica_states(domain, group)
            assert len(states) == 3
            assert all(state == states[primary_of(domain, group)]
                       for state in states.values())
    world.run(until=world.now + 0.2)
    assert m.value("totem.msg.sent") - sent == 8 * transfers
    assert m.value("eternal.state.carried") - carried == 4 * transfers
    assert m.value("eternal.state.updates") == 0
    for rm in domain.rms.values():      # each reply truncated what it covers
        assert all(len(log) == 0 for log in rm.logs.values())
    world.audit(strict=True)


def test_oneway_on_warm_passive_still_multicasts_a_state_update(world):
    domain = make_domain(world)
    group = domain.create_group("Events", EVENTS, EventSinkServant,
                                style=ReplicationStyle.WARM_PASSIVE)
    domain.await_ready(group)
    seen = kinds_on_ring(domain, domain.hosts[0].name)
    world.await_promise(group.invoke("emit", "a"))      # no reply to ride on
    world.run(until=world.now + 0.2)
    assert seen.count(MsgKind.CHECKPOINT) == 1
    assert seen.count(MsgKind.RESPONSE) == 0
    assert world.metrics.value("eternal.state.updates") == 1
    assert world.metrics.value("eternal.state.carried") == 0
    assert world.await_promise(group.invoke("count")) == 1
    states = replica_states(domain, group)
    assert len(states) == 3 and all(s == {"notes": ["a"]}
                                    for s in states.values())
    assert seen.count(MsgKind.CHECKPOINT) == 1      # count() rode its reply
    assert world.metrics.value("eternal.state.carried") == 1


def test_cold_passive_checkpoints_ride_replies(world):
    domain = make_domain(world)
    group = make_counter_group(domain, style=ReplicationStyle.COLD_PASSIVE,
                               checkpoint_interval=5)
    domain.await_ready(group)
    seen = kinds_on_ring(domain, domain.hosts[0].name)
    for _ in range(12):
        world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 0.2)
    assert MsgKind.CHECKPOINT not in seen
    assert seen.count(MsgKind.RESPONSE) == 12
    primary = primary_of(domain, group)
    assert domain.rms[primary].stats["checkpoints"] == 2
    assert world.metrics.value("eternal.checkpoint.multicasts") == 2
    assert world.metrics.value("eternal.state.carried") == 2
    for host in group.info().placement:
        log = domain.rms[host].logs[group.group_id]
        assert log.checkpoint.state == {"count": 10}
        assert len(log) == 2            # the suffix after the 10th operation
    # Backups stay cold: only the primary's servant moved.
    assert replica_counts(domain, group) == {
        host: (12 if host == primary else 0)
        for host in group.info().placement}


def test_primary_dies_as_its_reply_is_delivered(world):
    """Reply and state share one position in the total order, so a
    primary that dies the instant its reply is delivered leaves nothing
    to replay — even on a ring whose token visit carries one message,
    where a separate CHECKPOINT would have died with it."""
    domain = make_domain(world, num_hosts=4, gateways=1,
                         totem_config=TotemConfig(max_messages_per_token=1))
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE,
                               replicas=3, min_replicas=2)
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 1
    primary = primary_of(domain, group)
    gateway = domain.gateways[0]
    responses = []

    def kill_at_the_reply(seq, sender, payload):
        if getattr(payload, "kind", None) is MsgKind.RESPONSE:
            responses.append(sender)
            if domain.rms[primary].alive:
                world.faults.crash_now(primary)

    domain.members[gateway.host.name].on_deliver(kill_at_the_reply)
    assert world.await_promise(stub.call("increment", 10), timeout=600) == 11
    world.run(until=world.now + 1.0)
    promoted = primary_of(domain, group)
    assert promoted != primary
    assert world.metrics.value("fault.failover.count") == 1
    assert world.metrics.value("fault.recovery.replays") == 0
    assert responses == [primary]       # answered once, never re-sent
    assert set(replica_counts(domain, group).values()) == {11}
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 12
    assert domain.rms[promoted].stats["invocations_executed"] == 1


# What a plain-ORB client of the parent commit received for
# increment(1), increment(1) through the gateway: two GIOP 1.0 Replies.
PARENT_REPLY_BYTES = (
    "47494f50010000010000001000000000000000010000000000000001"
    "47494f50010000010000001000000000000000020000000000000002")


def test_client_sees_the_same_reply_bytes(world, monkeypatch):
    """The gateway forwards ``msg.iiop`` only: the state riding in the
    RESPONSE's ``data`` never reaches the TCP side."""
    received = {}
    deliver = TcpEndpoint._deliver

    def tap(self, data):
        if self.host.name.startswith("browser"):
            received[self.host.name] = received.get(self.host.name,
                                                    b"") + data
        deliver(self, data)

    monkeypatch.setattr(TcpEndpoint, "_deliver", tap)
    domain = make_domain(world, gateways=1)
    for style in (ReplicationStyle.WARM_PASSIVE, ReplicationStyle.ACTIVE):
        group = make_counter_group(domain, style=style, name=style.value)
        domain.await_ready(group)
        _, stub, _ = external_client(world, domain, group, enhanced=False,
                                     host_name=f"browser-{style.value}")
        for _ in range(2):
            world.await_promise(stub.call("increment", 1))
    assert world.metrics.value("eternal.state.carried") == 2
    assert received["browser-warm_passive"] == received["browser-active"]
    assert received["browser-warm_passive"].hex() == PARENT_REPLY_BYTES
