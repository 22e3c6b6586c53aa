"""Tests for Totem's retransmission and gap-repair machinery.

The simulated network is reliable between live, unpartitioned hosts, so
gaps only arise through partitions — which is exactly how these tests
provoke them: a broadcast sent while a pair of hosts cannot talk leaves
one member with a hole that the token's retransmission-request (rtr)
mechanism must repair after the partition heals.
"""

import pytest

from repro.sim import World
from repro.totem import TotemConfig, TotemMember, TotemTransport
from repro.totem.messages import Frame, RegularMessage, Token


def build(world, count, config=None):
    transport = TotemTransport(world.network, "d")
    members, delivered = [], {}
    for i in range(count):
        host = world.add_host(f"t{i}", site="lan")
        member = TotemMember(host, f"t{i}", transport, config=config)
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


def lose_one_frame(transport, victim, payload):
    """The first frame carrying ``payload`` drops its copy to ``victim``
    (the lossy-LAN case Totem is designed for).  Returns the payloads of
    every frame broadcast from here on, one list per frame."""
    original_fan_out = transport._fan_out
    lost_host = transport.lookup(victim).host
    frames = []

    def lossy_fan_out(sender, targets, message, size):
        if isinstance(message, Frame):
            payloads = [msg.payload for msg in message.messages]
            frames.append(payloads)
            if payload in payloads and frames.count(payloads) == 1:
                # Only the original copy is lost, not a retransmission.
                targets = [t for t in targets if t[0] is not lost_host]
        original_fan_out(sender, targets, message, size)

    transport._fan_out = lossy_fan_out
    return frames


def test_lossy_broadcast_gap_repaired_by_retransmission(world):
    """t2 misses one frame, detects the gap via the token, and the
    message is retransmitted by a member that holds it."""
    transport, members, delivered = build(world, 3)
    lose_one_frame(transport, "t2", "lost-for-t2")
    members[0].multicast("lost-for-t2")
    members[1].multicast("follow-up")  # traffic behind the gap
    world.scheduler.run_until(
        lambda: "lost-for-t2" in delivered["t2"] and
        "follow-up" in delivered["t2"], timeout=60.0)
    # All members end with identical sequences, repaired via rtr.
    assert delivered["t0"] == delivered["t1"] == delivered["t2"]
    retransmits = sum(m.stats["retransmits"] for m in members)
    assert retransmits >= 1
    # The world counter is the sum of the members' stats.
    assert world.metrics.value("totem.retransmit.count") == retransmits


def test_a_lost_frame_is_as_many_gaps_repaired_by_one_frame(world):
    """A frame of four never reaches t2: the next token carries four
    retransmission requests, the first member that holds them answers
    all four in one frame, and t2 delivers in the order everyone did.
    (A quota of 64 is what makes a frame hold four.)"""
    transport, members, delivered = build(
        world, 3, config=TotemConfig(max_messages_per_token=64))
    frames = lose_one_frame(transport, "t2", "b")
    asked = []
    inner = members[0]._dispatch[Token]

    def spy(token):
        asked.append(sorted(token.rtr))
        inner(token)

    members[0]._dispatch[Token] = spy
    lost = ["a", "b", "c", "d"]
    for payload in lost:
        members[0].multicast(payload)
    members[1].multicast("follow-up")
    world.scheduler.run_until(
        lambda: len(delivered["t2"]) == 5, timeout=1.0)
    assert delivered["t0"] == delivered["t1"] == delivered["t2"]
    assert sorted(delivered["t2"]) == sorted(lost + ["follow-up"])
    # The lost frame, a frame of traffic beside it, one repair frame.
    assert sorted(frames) == [lost, lost, ["follow-up"]]
    requests = max(asked, key=len)
    assert requests == list(range(requests[0], requests[0] + 4))
    assert world.metrics.value("totem.retransmit.count") == 4
    assert world.metrics.value("totem.msg.sent") == 5
    assert world.metrics.histogram("totem.frame.messages").count == 3
    world.run(until=world.now + 0.05)
    world.audit(strict=True)


def test_unrecoverable_gap_is_skipped_after_bounded_rotations(world):
    """White-box: a gap nobody can serve is abandoned after the
    configured number of token rotations (the consistency cut)."""
    config = TotemConfig(gap_give_up_rotations=2)
    transport, members, delivered = build(world, 2, config=config)
    member = members[0]
    # Fabricate a hole: a message two ahead arrived, seq+1 never will.
    ghost_seq = member.delivered_up_to + 2
    member._buffer[ghost_seq] = RegularMessage(
        ring_id=member.ring_id, seq=ghost_seq, sender="ghost",
        payload="after-the-gap")
    world.scheduler.run_until(
        lambda: "after-the-gap" in delivered["t0"], timeout=60.0)
    assert member.stats["gaps_skipped"] == 1
    assert world.metrics.value("totem.gap.skipped") == 1
    skipped, = world.flight.events("flight.totem_drop")
    assert skipped["detail"] == {"member": "t0", "cause": "gap",
                                 "first_seq": ghost_seq - 1, "count": 1}


def test_messages_behind_an_unfilled_gap_are_dropped_at_the_cut(world):
    """A message held behind a gap when the ring reforms is given up
    at the cut, not delivered out of order, and the black box says so."""
    config = TotemConfig(gap_give_up_rotations=1000)
    transport, members, delivered = build(world, 3, config=config)
    member = members[0]
    ghost_seq = member.delivered_up_to + 2
    member._buffer[ghost_seq] = RegularMessage(
        ring_id=member.ring_id, seq=ghost_seq, sender="ghost",
        payload="behind-the-gap")
    world.faults.crash_now("t2")
    world.scheduler.run_until(
        lambda: member.members == ("t0", "t1")
        and member.state == TotemMember.OPERATIONAL, timeout=30.0)
    dropped, = world.flight.events("flight.totem_drop")
    assert dropped["detail"] == {"member": "t0", "cause": "cut",
                                 "first_seq": ghost_seq, "count": 1}
    assert "behind-the-gap" not in delivered["t0"]
    assert not member._buffer


def test_retransmitted_duplicates_are_ignored(world):
    """If a retransmission arrives for a message already delivered, it
    is dropped (not re-delivered)."""
    transport, members, delivered = build(world, 2)
    members[0].multicast("once")
    world.scheduler.run_until(lambda: "once" in delivered["t1"],
                              timeout=30.0)
    target = members[1]
    seq = target.delivered_up_to
    target.receive(Frame((RegularMessage(ring_id=target.ring_id, seq=seq,
                                         sender="t0", payload="once"),)))
    world.run(until=world.now + 0.2)
    assert delivered["t1"].count("once") == 1
