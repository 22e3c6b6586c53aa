"""Edge-case tests for the Totem protocol machinery."""

import pytest

from repro.sim import World
from repro.totem import (
    CommitMessage,
    JoinMessage,
    RegularMessage,
    Token,
    TotemConfig,
    TotemMember,
    TotemTransport,
)


def build(world, count, config=None):
    transport = TotemTransport(world.network, "d")
    members, delivered = [], {}
    for i in range(count):
        host = world.add_host(f"m{i}", site="lan")
        member = TotemMember(host, f"m{i}", transport, config=config)
        delivered[member.name] = []
        member.on_deliver(lambda seq, snd, p, n=member.name:
                          delivered[n].append(p))
        members.append(member)
    for member in members:
        member.start()
    world.scheduler.run_until(
        lambda: all(m.state == TotemMember.OPERATIONAL and
                    len(m.members) == count for m in members), timeout=30.0)
    return transport, members, delivered


def test_leader_crash_during_operation_reforms_without_it(world):
    transport, members, delivered = build(world, 3)
    leader = members[0]          # lowest name leads the ring
    assert leader.members[0] == leader.name
    world.faults.crash_now(leader.name)
    world.scheduler.run_until(
        lambda: all(m.state == TotemMember.OPERATIONAL and
                    set(m.members) == {"m1", "m2"} for m in members[1:]),
        timeout=30.0)
    members[1].multicast("after-leader-death")
    world.scheduler.run_until(
        lambda: "after-leader-death" in delivered["m2"], timeout=30.0)


def test_cascading_crashes_down_to_singleton(world):
    transport, members, delivered = build(world, 3)
    world.faults.crash_now("m1")
    world.scheduler.run_until(
        lambda: set(members[0].members) == {"m0", "m2"} and
        members[0].state == TotemMember.OPERATIONAL, timeout=30.0)
    world.faults.crash_now("m2")
    world.scheduler.run_until(
        lambda: members[0].members == ("m0",) and
        members[0].state == TotemMember.OPERATIONAL, timeout=30.0)
    members[0].multicast("alone")
    world.scheduler.run_until(lambda: "alone" in delivered["m0"],
                              timeout=30.0)


def test_stale_ring_traffic_is_ignored(world):
    transport, members, delivered = build(world, 2)
    stale = RegularMessage(ring_id=(0, "ghost"), seq=999, sender="ghost",
                           payload="stale")
    members[0].receive(stale)
    world.run(until=world.now + 0.5)
    assert "stale" not in delivered["m0"]


def test_stale_commit_is_ignored(world):
    transport, members, delivered = build(world, 2)
    current_ring = members[0].ring_id
    stale_commit = CommitMessage(ring_id=(0, "ghost"), members=("m0",),
                                 start_seq=0, leader="ghost")
    members[0].receive(stale_commit)
    world.run(until=world.now + 0.2)
    assert members[0].ring_id == current_ring
    assert set(members[0].members) == {"m0", "m1"}


def test_duplicate_regular_messages_are_dropped(world):
    transport, members, delivered = build(world, 2)
    members[0].multicast("once")
    world.scheduler.run_until(lambda: "once" in delivered["m1"], timeout=30.0)
    # Replay the exact message (as a retransmission would).
    replay = RegularMessage(ring_id=members[1].ring_id,
                            seq=members[1].delivered_up_to,
                            sender="m0", payload="once")
    members[1].receive(replay)
    world.run(until=world.now + 0.2)
    assert delivered["m1"].count("once") == 1


def test_flow_control_quota_respected_per_token_visit(world):
    config = TotemConfig(max_messages_per_token=3)
    transport, members, delivered = build(world, 2, config=config)
    for i in range(10):
        members[0].multicast(i)
    # Shortly after, the pending queue drains in visits of <= 3.
    assert members[0].pending_count == 10
    world.scheduler.run_until(lambda: len(delivered["m1"]) == 10,
                              timeout=60.0)
    assert delivered["m1"] == list(range(10))


def test_withdrawn_payload_takes_no_sequence_number_or_quota(world):
    """`withdraw` is generic: any queued payload can be taken back until
    a token visit sequences it, and then it never existed as far as the
    ring is concerned."""
    config = TotemConfig(max_messages_per_token=3)
    transport, members, delivered = build(world, 2, config=config)
    seqs = []
    members[1].on_deliver(lambda seq, sender, payload: seqs.append(seq))
    sent_before = transport.broadcasts
    visits_before = members[0].stats["token_passes"]
    entries = [members[0].multicast(i) for i in range(5)]
    assert members[0].withdraw(entries[1])
    assert members[0].withdraw(entries[3])
    assert not members[0].withdraw(entries[3])      # only once
    assert members[0].pending_count == 3            # tombstones don't count
    world.audit()
    assert world.metrics.value("totem.state.pending") == 3
    # One token visit carries all three survivors: the two withdrawn
    # entries used none of the quota of 3.
    world.scheduler.run_until(lambda: len(delivered["m1"]) == 3,
                              timeout=60.0)
    assert delivered["m1"] == [0, 2, 4]
    assert members[0].stats["token_passes"] - visits_before == 1
    assert seqs == list(range(seqs[0], seqs[0] + 3))   # no holes
    assert transport.broadcasts - sent_before == 3
    assert not members[0].withdraw(entries[0])      # already sequenced
    assert world.metrics.value("totem.msg.withdrawn") == 2
    world.run(until=world.now + 0.1)
    assert members[0].pending_count == 0
    world.audit(strict=True)


def test_stability_aru_garbage_collects_store(world):
    transport, members, delivered = build(world, 3)
    for i in range(20):
        members[0].multicast(i)
    world.scheduler.run_until(
        lambda: all(len(delivered[m.name]) == 20 for m in members),
        timeout=60.0)
    # Give the token a few more rotations to advance aru and GC.
    world.run(until=world.now + 0.1)
    for member in members:
        assert len(member._store) < 20


def test_member_stats_track_protocol_activity(world):
    transport, members, delivered = build(world, 3)
    members[0].multicast("x")
    world.scheduler.run_until(lambda: "x" in delivered["m2"], timeout=30.0)
    assert members[0].stats["sent"] == 1
    assert all(m.stats["delivered"] == 1 for m in members)
    assert all(m.stats["reformations"] >= 1 for m in members)
    assert members[0].stats["token_passes"] > 0


def test_transport_accounting(world):
    transport, members, delivered = build(world, 2)
    before = transport.broadcasts
    members[0].multicast("x")
    world.scheduler.run_until(lambda: "x" in delivered["m1"], timeout=30.0)
    assert transport.broadcasts == before + 1
    assert transport.datagrams > 0


def test_join_from_unknown_process_triggers_reformation(world):
    transport, members, delivered = build(world, 2)
    old_ring = members[0].ring_id
    # A new processor starts and joins.
    host = world.add_host("m9", site="lan")
    joiner = TotemMember(host, "m9", transport)
    joiner.start()
    world.scheduler.run_until(
        lambda: all(set(m.members) == {"m0", "m1", "m9"}
                    for m in members + [joiner]), timeout=30.0)
    assert members[0].ring_id != old_ring
