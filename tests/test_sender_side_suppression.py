"""Sender-side duplicate suppression: one copy on the ring per operation.

Under ACTIVE (and STATELESS) replication every replica computes the
same RESPONSE and the same nested INVOCATION.  A replica whose copy is
still in its Totem send queue when a sibling's identical copy (same
Figure 4 header) is delivered in total order withdraws it; copies that
cross on the ring are still dropped by the receiver-side
``DuplicateSuppressor``, which is untouched.  These tests pin both
halves: what no longer reaches the ring, and that the guarantee holds
wherever the optimisation does not fire.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ReplicationStyle, World
from repro.apps import (
    ACCOUNT_INTERFACE,
    AccountServant,
    LEDGER_INTERFACE,
    LedgerServant,
    TRANSFER_INTERFACE,
    TransferAgentServant,
)
from repro.eternal.messages import MsgKind

from tests.helpers import (
    counters_from_here,
    external_client,
    make_counter_group,
    make_domain,
    replica_counts,
)


def ring_log(domain, at):
    """Every application message delivered at member ``at``, in total
    order: what actually went on the ring."""
    seen = []

    def record(seq, sender, payload):
        if getattr(payload, "kind", None) in (MsgKind.INVOCATION,
                                              MsgKind.RESPONSE):
            seen.append((payload.kind, sender, payload))

    domain.members[at].on_deliver(record)
    return seen


def responses(seen):
    return [sender for kind, sender, _ in seen if kind is MsgKind.RESPONSE]


def assert_response_partition(world):
    m = world.metrics
    assert m.value("gateway.resp.received") == (
        m.value("gateway.dup.suppressed")
        + m.value("gateway.resp.unexpected")
        + m.value("gateway.resp.vote_pending")
        + m.value("gateway.resp.delivered")
        + m.value("gateway.resp.unroutable"))


# (a) ------------------------------------------------------------------

def test_one_response_on_the_ring_per_active_operation(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain, replicas=3)
    grown = counters_from_here(world)
    gateway = domain.gateways[0]
    seen = ring_log(domain, gateway.host.name)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    values = [world.await_promise(stub.call("increment", 1))
              for _ in range(4)]
    world.run(until=world.now + 0.2)
    assert values == [1, 2, 3, 4]
    assert len(responses(seen)) == 4
    m = world.metrics
    assert grown("rm.copies.queued") == 12
    assert grown("rm.copies.withdrawn") == 8
    assert grown("totem.msg.withdrawn") == 8
    assert gateway.stats["responses_delivered"] == 4
    assert gateway.stats["duplicates_suppressed"] == 0
    assert set(replica_counts(domain, group).values()) == {4}
    world.audit(strict=True)
    assert m.value("rm.state.outbound_copies") == 0
    assert m.value("totem.state.pending") == 0


# (b) ------------------------------------------------------------------

def test_fig6_bank_one_copy_per_nested_call(world):
    domain = make_domain(world, num_hosts=4)
    accounts = domain.create_group("Accounts", ACCOUNT_INTERFACE,
                                   AccountServant)
    ledger = domain.create_group("Ledger", LEDGER_INTERFACE, LedgerServant)
    agent = domain.create_group("Transfers", TRANSFER_INTERFACE,
                                TransferAgentServant)
    grown = counters_from_here(world)
    seen = ring_log(domain, domain.hosts[0].name)
    world.await_promise(accounts.invoke("deposit", "alice", 100))
    transfers = 5
    for _ in range(transfers):
        world.await_promise(agent.invoke("transfer", "alice", "bob", 10))
    world.run(until=world.now + 0.2)
    nested_invocations = [p for kind, _, p in seen
                          if kind is MsgKind.INVOCATION
                          and p.source_group == agent.group_id]
    nested_responses = [p for kind, _, p in seen
                        if kind is MsgKind.RESPONSE
                        and p.target_group == agent.group_id]
    # withdraw, deposit, record: three nested calls per transfer, each
    # one INVOCATION and one RESPONSE on the wire — not one per replica.
    assert len(nested_invocations) == 3 * transfers
    assert len(nested_responses) == 3 * transfers
    assert len({p.op_id for p in nested_invocations}) == 3 * transfers
    assert grown("rm.copies.withdrawn") > 0
    assert (grown("rm.copies.queued") - grown("rm.copies.withdrawn")
            == len(responses(seen)) + len(nested_invocations))
    assert world.metrics.value("eternal.invocations.duplicate") == 0
    assert world.await_promise(ledger.invoke("entries")) == transfers
    assert world.await_promise(accounts.invoke("balance", "alice")) == 50
    assert world.await_promise(accounts.invoke("balance", "bob")) == 50
    for rm in domain.rms.values():
        record = rm.replicas.get(accounts.group_id)
        if record is not None:
            assert record.servant.balances == {"alice": 50, "bob": 50}
    world.run(until=world.now + 0.2)
    world.audit(strict=True)


# (c) ------------------------------------------------------------------

def test_crossing_copies_are_still_suppressed_at_the_gateway(world):
    """Figure 3 still shown working.  The ring is gw0 → h0 → h1 → h2;
    h0 speaks first.  With the h0–h2 link slower than the token's path
    through h1 (0.2 + 0.5 + 0.2 + 0.5 ms), the token reaches h2 before
    h0's copy does: h2 sends its own, the two copies cross, and the
    gateway's filter drops the second.  h1 saw h0's copy in time and
    withdrew."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain, replicas=3)
    grown = counters_from_here(world)
    world.network.latency_model.set_pair("dom-h0", "dom-h2", 0.003)
    gateway = domain.gateways[0]
    seen = ring_log(domain, gateway.host.name)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    for _ in range(4):
        world.await_promise(stub.call("increment", 1))
    world.run(until=world.now + 0.2)
    assert responses(seen) == ["dom-h0", "dom-h2"] * 4
    assert grown("rm.copies.withdrawn") == 4
    assert gateway.stats["responses_delivered"] == 4
    assert gateway.stats["duplicates_suppressed"] == 4
    # withdrawn at sender + suppressed at gateway = n - 1 per operation
    assert (grown("rm.copies.withdrawn")
            + gateway.stats["duplicates_suppressed"]) == (3 - 1) * 4
    assert_response_partition(world)
    world.audit(strict=True)


# (d) ------------------------------------------------------------------

def test_first_speaker_dies_with_its_copy_still_queued(world):
    """Withdrawal fires only on agreed *delivery* of a sibling's copy,
    so a replica that dies holding the only about-to-be-sent copy takes
    nothing with it: the survivors' copies are still queued."""
    domain = make_domain(world, num_hosts=4, gateways=1)
    group = make_counter_group(domain, replicas=3, min_replicas=2)
    domain.await_ready(group)
    grown = counters_from_here(world)
    gateway = domain.gateways[0]
    seen = ring_log(domain, gateway.host.name)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    assert world.await_promise(stub.call("increment", 1)) == 1
    (first_speaker,) = responses(seen)
    rm = domain.rms[first_speaker]
    queue_copy = rm._multicast_copy

    def queue_then_die(message):
        queue_copy(message)
        world.faults.crash_now(first_speaker)

    rm._multicast_copy = queue_then_die
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 2
    world.run(until=world.now + 1.0)
    survivors = set(replica_counts(domain, group))
    assert first_speaker not in survivors and len(survivors) == 2
    second = responses(seen)[1:]
    assert len(second) == 1 and second[0] in survivors
    # Two withdrawn on the first call, one (the other survivor's) on
    # the second; the dead replica's copy was never withdrawn or sent.
    assert grown("rm.copies.withdrawn") == 3
    assert gateway.stats["responses_delivered"] == 2
    assert gateway.stats["duplicates_suppressed"] == 0
    assert set(replica_counts(domain, group).values()) == {2}
    world.audit(strict=True)


def test_own_copy_dropped_at_a_ring_cut_does_not_leak(world):
    """An entry normally leaves the table when a copy of its message is
    delivered.  Here h2 never delivers one: h0's copy cannot reach it
    (partition), so h2 sends its own behind that gap, and the ring
    reforms before the gap is repaired — the cut drops h2's buffered
    own copy.  The membership change must retire the entry."""
    domain = make_domain(world, num_hosts=4, gateways=1)
    group = make_counter_group(domain, replicas=3, min_replicas=2,
                               placement=["dom-h0", "dom-h1", "dom-h2"])
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    assert world.await_promise(stub.call("increment", 1)) == 1
    world.network.partition({"dom-h0"}, {"dom-h2"})
    armed = [True]

    def lose_the_token(seq, sender, payload):
        # h2 has just sequenced its copy and forwarded the token to h3.
        if (armed and getattr(payload, "kind", None) is MsgKind.RESPONSE
                and sender == "dom-h2"):
            armed.clear()
            world.faults.crash_now("dom-h3")

    domain.members["dom-h1"].on_deliver(lose_the_token)
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 2
    assert not armed
    world.run(until=world.now + 0.5)
    world.network.heal_partitions()
    world.run(until=world.now + 1.0)
    assert replica_counts(domain, group) == {
        "dom-h0": 2, "dom-h1": 2, "dom-h2": 2}
    world.audit(strict=True)
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 3


# (e) ------------------------------------------------------------------

def test_voting_keeps_every_copy_and_masks_a_minority_fault(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain,
                               style=ReplicationStyle.ACTIVE_WITH_VOTING)
    domain.await_ready(group)
    grown = counters_from_here(world)
    gateway = domain.gateways[0]
    seen = ring_log(domain, gateway.host.name)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    assert world.await_promise(stub.call("increment", 2)) == 2
    faulty = group.info().placement[0]
    domain.rms[faulty].replicas[group.group_id].servant.count = 77
    assert world.await_promise(stub.call("value")) == 2
    world.run(until=world.now + 0.2)
    # All three replicas' copies of both responses went on the ring.
    assert sorted(responses(seen)) == sorted(group.info().placement * 2)
    assert grown("rm.copies.queued") == 0
    assert grown("totem.msg.withdrawn") == 0
    assert world.metrics.value("gateway.resp.received") == 6
    assert gateway.stats["responses_delivered"] == 2
    assert_response_partition(world)
    world.audit(strict=True)


# (f) ------------------------------------------------------------------

@pytest.mark.parametrize("new_style", [ReplicationStyle.LEADER_FOLLOWER,
                                       ReplicationStyle.ACTIVE_WITH_VOTING])
def test_live_switch_away_from_active_under_load(world, new_style):
    """The STYLE_SWITCH lands in the middle of a pipelined batch: copies
    queued (and withdrawn) under ACTIVE on one side of the cut, the new
    engine's copies on the other.  Nothing is lost, nothing is served
    twice."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain, replicas=3)
    grown = counters_from_here(world)
    gateway = domain.gateways[0]
    order = []   # (sequence number, kind) as the gateway's member saw it
    switch_after = 4   # INVOCATIONs in the order, the connect call included

    def watch(seq, sender, payload):
        order.append((seq, payload.kind))
        # Issued from inside the total order, not after a sleep (a
        # multicast that finds the token parked is sequenced within a
        # hop or two, ahead of a batch still crossing the WAN).  The 24
        # pipelined requests need two token visits under the 16-message
        # quota; this fires while the first visit's invocations are
        # being delivered, so the switch is sequenced between the two.
        if payload.kind is MsgKind.INVOCATION and sum(
                kind is MsgKind.INVOCATION for _, kind in order) == switch_after:
            domain.switch_style(group, new_style)

    domain.members[gateway.host.name].on_deliver(watch)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    assert world.await_promise(stub.call("increment", 1)) == 1  # connect
    promises = [stub.call("increment", 1) for _ in range(24)]
    world.run_until_done(promises, timeout=240)
    assert sorted(p.value for p in promises) == list(range(2, 26))
    world.run(until=world.now + 0.3)
    assert group.info().style is new_style
    assert set(replica_counts(domain, group).values()) == {25}
    assert gateway.stats["responses_delivered"] \
        + gateway.stats["votes_relaxed"] == 25
    # The operations sequenced ahead of the switch — more than the
    # connect call, fewer than all 25 — ran under ACTIVE (three copies
    # queued each, two withdrawn); those behind it did not.  So did the
    # Replication Manager's switch_style call that put the switch on
    # the ring (an ACTIVE group of three as well).
    cut = next(seq for seq, kind in order if kind is MsgKind.STYLE_SWITCH)
    active_ops = sum(1 for seq, kind in order
                     if kind is MsgKind.INVOCATION and seq < cut)
    assert 1 < active_ops - 1 < 25
    assert grown("rm.copies.queued") == 3 * active_ops
    assert grown("rm.copies.withdrawn") == 2 * active_ops
    assert_response_partition(world)
    world.audit(strict=True)


# (g) ------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(degree=st.integers(2, 5),
       victim_pick=st.integers(0, 6),
       instant=st.floats(0.0, 1.0, allow_nan=False),
       seed=st.integers(0, 2**16))
def test_any_crash_instant_is_exactly_once(degree, victim_pick, instant,
                                           seed):
    """One crash — a replica or a gateway — at an instant drawn
    continuously across one token rotation, while a call is in flight,
    for every replication degree: the client-visible history is exactly
    once, survivors agree, nothing leaks."""
    world = World(seed=seed)
    domain = make_domain(world, num_hosts=degree, gateways=2)
    group = make_counter_group(domain, replicas=degree, min_replicas=1)
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 1
    candidates = (list(group.info().placement)
                  + [gw.host.name for gw in domain.gateways])
    victim = candidates[victim_pick % len(candidates)]
    config = domain.members[victim].config
    hop = config.token_hold + world.network.latency_model.local_latency
    rotation = hop * len(domain.members)
    history = [1]
    in_flight = stub.call("increment", 1)
    # The request crosses the WAN before it reaches the gateway; start
    # the rotation-wide window where the domain begins to work on it.
    world.run(until=world.now + world.network.latency_model.wan_latency)
    world.scheduler.call_after(instant * 2 * rotation,
                               lambda: world.faults.crash_now(victim))
    history.append(world.await_promise(in_flight, timeout=600))
    for _ in range(2):
        history.append(world.await_promise(stub.call("increment", 1),
                                           timeout=600))
    world.run(until=world.now + 1.0)
    assert history == [1, 2, 3, 4]
    counts = replica_counts(domain, group)
    assert counts and set(counts.values()) == {4}
    world.audit(strict=True)
