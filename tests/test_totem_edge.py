"""Edge-case tests for the Totem protocol machinery."""

import pytest

from repro.sim import World
from repro.sim.network import LatencyModel
from repro.totem import (
    CommitMessage,
    Frame,
    JoinMessage,
    RegularMessage,
    Token,
    TotemConfig,
    TotemMember,
    TotemTransport,
)
from repro.totem.member import FRAMES_PER_VISIT, REJOIN_BACKOFF


#: A quota of 64 packs four messages to a frame (FRAMES_PER_VISIT = 16).
PACKING = TotemConfig(max_messages_per_token=64)


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
    members[0].multicast("current")
    world.scheduler.run_until(lambda: delivered["m0"], timeout=1.0)
    # Ignored message by message: the frame's other message, one past
    # what m0 holds on the current ring, is taken.
    fresh = RegularMessage(ring_id=members[0].ring_id,
                           seq=members[0].delivered_up_to + 1, sender="m1",
                           payload="fresh")
    members[0].receive(Frame((stale, fresh)))
    world.run(until=world.now + 0.5)
    assert delivered["m0"] == ["current", "fresh"]
    assert not members[0]._buffer


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
    members[1].receive(Frame((replay, replay)))
    world.run(until=world.now + 0.2)
    assert delivered["m1"].count("once") == 1
    # A bare message is not a wire form: sequenced traffic travels in
    # frames only.
    members[1].receive(RegularMessage(
        ring_id=members[1].ring_id, seq=members[1].delivered_up_to + 1,
        sender="m0", payload="bare"))
    assert "bare" not in delivered["m1"] and not members[1]._buffer


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
    sent_before = world.metrics.value("totem.msg.sent")
    frames_before = transport.stats["broadcasts"]
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
    # Three messages, three sequence numbers; at a quota of 3 (anything
    # up to FRAMES_PER_VISIT) a frame holds one message.
    assert world.metrics.value("totem.msg.sent") - sent_before == 3
    assert transport.stats["broadcasts"] - frames_before == 3
    assert world.metrics.histogram("totem.frame.messages").max == 1
    assert not members[0].withdraw(entries[0])      # already sequenced
    assert world.metrics.value("totem.msg.withdrawn") == 2
    world.run(until=world.now + 0.1)
    assert members[0].pending_count == 0
    world.audit(strict=True)


def test_frame_capacity_follows_the_quota(world):
    """A visit puts at most FRAMES_PER_VISIT datagrams of new messages
    on the LAN: a quota above that is met by packing, ceil(quota / 16)
    messages to a frame, in sequence order; at the default quota every
    message still has a datagram to itself."""
    assert FRAMES_PER_VISIT == TotemConfig().max_messages_per_token
    transport, members, delivered = build(world, 2, config=PACKING)
    seen = []
    inner = transport.broadcast_frame

    def spy(sender, messages):
        seen.append([msg.payload for msg in messages])
        return inner(sender, messages)

    transport.broadcast_frame = spy
    for i in range(10):
        members[0].multicast(i)
    world.scheduler.run_until(lambda: len(delivered["m1"]) == 10, timeout=1.0)
    assert seen == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert delivered["m0"] == delivered["m1"] == list(range(10))
    assert members[0].stats["token_passes"] <= 2   # one visit sent them all

    plain = World(seed=1)
    transport, members, delivered = build(plain, 2)
    before = transport.stats["broadcasts"]
    for i in range(10):
        members[0].multicast(i)
    plain.scheduler.run_until(lambda: len(delivered["m1"]) == 10, timeout=1.0)
    assert transport.stats["broadcasts"] - before == 10
    assert plain.metrics.histogram("totem.frame.messages").max == 1


def test_listener_crashing_its_host_mid_frame_stops_the_unpacking(world):
    """m2 dies delivering the second of a frame's four messages: what the
    frame held behind it is lost with the host, not delivered to a dead
    process, and the survivors take all four and agree."""
    transport, members, delivered = build(world, 3, config=PACKING)

    def poisoned(seq, sender, payload):
        if payload == "poison":
            world.faults.crash_now("m2")

    members[2].on_deliver(poisoned)
    for payload in ("a", "poison", "b", "c"):
        members[0].multicast(payload)
    survivors = members[:2]
    world.scheduler.run_until(reformed(survivors), timeout=1.0)
    assert world.metrics.histogram("totem.frame.messages").max == 4
    assert delivered["m2"] == ["a", "poison"]
    assert not members[2]._buffer
    assert delivered["m0"] == delivered["m1"] == ["a", "poison", "b", "c"]
    survivors[1].multicast("after")
    world.run(until=world.now + 0.1)
    assert delivered["m0"] == delivered["m1"] \
        == ["a", "poison", "b", "c", "after"]
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
    before = transport.stats["broadcasts"]
    members[0].multicast("x")
    world.scheduler.run_until(lambda: "x" in delivered["m1"], timeout=30.0)
    assert transport.stats["broadcasts"] == before + 1
    assert transport.stats["datagrams"] > 0


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


# ----------------------------------------------------------------------
# The idle token: park, want, hand off, keep alive
# ----------------------------------------------------------------------

LAN = LatencyModel().local_latency
HOP = TotemConfig().token_hold + LAN          # one token pass
LOSS = TotemConfig().token_loss_timeout
KEEPALIVE = LOSS / 12                         # a parked token's rest


def settle(world, members):
    """Run until the idle token has come to rest; returns its holder."""
    world.scheduler.run_until(
        lambda: any(m.parked for m in members if m.alive), timeout=1.0)
    return next(m for m in members if m.parked)


def watch_tokens(members):
    """name -> time of that member's latest token sighting."""
    seen = {}
    for member in members:
        def spy(token, member=member, inner=member._dispatch[Token]):
            seen[member.name] = member.scheduler.now
            inner(token)
        member._dispatch[Token] = spy
    return seen


def token_losses(world):
    return {e["detail"]["member"]: e["t"]
            for e in world.flight.events("flight.token_loss")}


def reformed(members):
    names = {m.name for m in members}
    return lambda: all(m.state == TotemMember.OPERATIONAL
                       and set(m.members) == names for m in members)


def test_a_second_of_silence_costs_keepalives_and_nothing_else(world):
    transport, members, delivered = build(world, 5)
    members[2].multicast("last words")
    holder = settle(world, members)
    assert holder is members[2]          # the last sender keeps the token
    m = world.metrics
    reformations = m.value("totem.ring.reformations")
    visits = m.value("totem.token.passes")
    world.run(until=world.now + 1.0)
    assert settle(world, members) is holder     # let the last one finish
    assert m.value("totem.token.loss") == 0
    assert m.value("totem.ring.reformations") == reformations
    # One rotation, then a twelfth of the loss timeout at rest: about
    # two thirds of the visits of a token that never stops.
    keepalives = m.value("totem.token.keepalives")
    # (The holder releases it without a hold: four hops and a LAN hop.)
    assert keepalives == pytest.approx(1.0 / (KEEPALIVE + 4 * HOP + LAN),
                                       abs=1)
    assert m.value("totem.token.passes") - visits == 5 * keepalives
    assert m.histogram("totem.token.parked_time").max <= KEEPALIVE + 1e-9
    # The park declared everything stable; the keep-alive carried it.
    assert all(not member._store and not member._buffer
               and member._gc_floor == member.delivered_up_to
               for member in members)
    assert holder.parked
    world.audit(strict=True)


@pytest.mark.parametrize("how", ["handoff", "send", "reformation"])
def test_a_token_that_leaves_cancels_its_keepalive(world, how):
    """A park that ends before its keep-alive is due — handed to a
    member that asked, taken by the holder's own multicast, dropped at
    a reformation — leaves no keep-alive behind to fire on nothing."""
    transport, members, delivered = build(world, 5)
    holder = settle(world, members)
    keepalive = holder._keepalive_timer
    parked_at = world.now
    if how == "handoff":
        members[(members.index(holder) + 2) % 5].multicast("asks for it")
    elif how == "send":
        holder.multicast("sent by the holder")
    else:
        TotemMember(world.add_host("m9", site="lan"), "m9", transport).start()
    world.scheduler.run_until(lambda: not holder.parked, timeout=1.0)
    assert world.now < parked_at + KEEPALIVE
    released = world.flight.events("flight.token_released")
    assert released[-1]["detail"]["why"] == how
    world.run(until=parked_at + 2 * KEEPALIVE)
    assert not keepalive.fired and keepalive.cancelled


def test_a_token_hop_is_one_scheduler_event(world):
    """The hold time travels inside the token datagram: on a quiet ring
    the scheduler fires one event per token visit and one per keep-alive
    timer, nothing else."""
    transport, members, delivered = build(world, 5)
    holder = settle(world, members)
    m, scheduler = world.metrics, world.scheduler
    before = (scheduler.events_processed, m.value("totem.token.passes"),
              m.value("totem.token.keepalives"))
    world.run(until=world.now + 0.5)
    assert settle(world, members) is holder
    events, passes, keepalives = (
        now - then for now, then in zip(
            (scheduler.events_processed, m.value("totem.token.passes"),
             m.value("totem.token.keepalives")), before))
    assert keepalives > 50 and passes == 5 * keepalives
    assert events == passes + keepalives


def test_holder_crashing_during_its_hold_takes_the_token_down(world):
    """The token is already in a datagram when its holder's hold time
    starts, but a crash before that time is up still loses it: nobody
    sees it again, and the ring reforms without the holder."""
    transport, members, delivered = build(world, 4)
    seen = watch_tokens(members)
    members[0].multicast("rotate")
    world.scheduler.run_until(lambda: delivered["m3"], timeout=1.0)
    before = dict(seen)
    world.scheduler.run_until(lambda: seen["m2"] != before["m2"],
                              timeout=1.0)
    arrived = seen["m2"]
    world.run(until=arrived + TotemConfig().token_hold / 2)
    world.faults.crash_now("m2")
    survivors = [m for m in members if m.name != "m2"]
    world.scheduler.run_until(reformed(survivors), timeout=1.0)
    assert seen["m3"] < arrived                # m2 never passed it on
    for name, at in token_losses(world).items():
        assert at == pytest.approx(seen[name] + LOSS)
    world.run(until=world.now + 0.05)
    world.audit(strict=True)


def test_singleton_ring_parks_and_sends_at_once(world):
    transport, (alone,), delivered = build(world, 1)
    assert settle(world, [alone]) is alone
    sent = world.now
    alone.multicast("to myself")
    world.scheduler.run_until(lambda: delivered["m0"], timeout=1.0)
    assert world.now == sent      # heard from its send path, no wait
    world.run(until=world.now + 1.0)
    assert world.metrics.value("totem.token.loss") == 0
    assert alone.parked
    world.audit(strict=True)


def test_holder_dies_parked(world):
    """Nobody sees the token again: every survivor's loss timer runs out
    exactly one timeout after its own last sighting — no later than had
    the token been rotating — and what was queued meanwhile is
    delivered once on the new ring."""
    transport, members, delivered = build(world, 4)
    seen = watch_tokens(members)
    members[1].multicast("before")
    holder = settle(world, members)
    world.run(until=world.now + 0.001)        # before the next keep-alive
    assert holder.parked
    survivors = [m for m in members if m is not holder]
    crashed = world.now
    world.faults.crash_now(holder.name)
    survivors[0].multicast("queued-a")        # its TokenWanted dies with
    survivors[2].multicast("queued-b")        # the holder
    world.scheduler.run_until(reformed(survivors), timeout=1.0)
    losses = token_losses(world)
    assert losses
    for name, at in losses.items():
        assert at == pytest.approx(seen[name] + LOSS)
        assert at <= crashed + LOSS
    world.run(until=world.now + 0.1)
    for member in survivors:
        assert delivered[member.name] == ["before", "queued-a", "queued-b"]
    world.audit(strict=True)


def test_another_member_dies_while_the_token_is_parked(world):
    """The next keep-alive rotation is swallowed by the dead member, so
    the members behind it — the holder included — time out on a
    sighting older than the crash."""
    transport, members, delivered = build(world, 5)
    seen = watch_tokens(members)
    holder = settle(world, members)
    victim = members[(members.index(holder) + 2) % 5]
    crashed = world.now
    world.faults.crash_now(victim.name)
    survivors = [m for m in members if m is not victim]
    world.scheduler.run_until(reformed(survivors), timeout=1.0)
    assert world.metrics.value("totem.token.keepalives") >= 1
    losses = token_losses(world)
    first = min(losses.values())
    assert crashed < first <= crashed + LOSS
    for name, at in losses.items():
        assert at == pytest.approx(seen[name] + LOSS)
    survivors[0].multicast("after")
    world.scheduler.run_until(
        lambda: all("after" in delivered[m.name] for m in survivors),
        timeout=1.0)
    world.run(until=world.now + 0.05)
    world.audit(strict=True)


def test_partition_while_parked_reforms_both_sides(world):
    transport, members, delivered = build(world, 5)
    holder = settle(world, members)
    index = members.index(holder)
    with_token = [holder, members[(index + 1) % 5]]
    without = [m for m in members if m not in with_token]
    cut = world.now
    world.network.partition({m.name for m in with_token},
                            {m.name for m in without})
    world.scheduler.run_until(
        lambda: reformed(with_token)() and reformed(without)(), timeout=1.0)
    # Each side missed the token within one timeout of the cut.
    assert max(token_losses(world).values()) <= cut + LOSS + 5 * HOP
    with_token[1].multicast("kept the token")
    without[0].multicast("lost the token")
    world.run(until=world.now + 0.1)
    for member in with_token:
        assert delivered[member.name] == ["kept the token"]
    for member in without:
        assert delivered[member.name] == ["lost the token"]
    world.audit(strict=True)


@pytest.mark.parametrize("askers", [(1, 3), (4, 1), (3, 1, 4)])
def test_members_asking_in_the_same_instant_are_served_nearest_first(
        world, askers):
    """All the requests reach the parked holder in one instant; it hands
    the token to the nearest asker in ring order whatever order they
    arrived in, and the rotation from there serves the others in turn:
    nobody waits longer than a rotation and a LAN hop."""
    transport, members, delivered = build(world, 5)
    members[0].multicast("park at m0")
    assert settle(world, members) is members[0]
    world.run(until=world.now + 0.001)
    handoffs = world.metrics.value("totem.token.handoffs")
    asked = world.now
    for index in askers:
        members[index].multicast(f"from m{index}")
    done = lambda: all(len(delivered[m.name]) == 1 + len(askers)
                       for m in members)
    world.scheduler.run_until(done, timeout=1.0)
    assert world.now - asked <= 5 * HOP + 2 * LAN
    for member in members:
        assert delivered[member.name][1:] == [
            f"from m{index}" for index in sorted(askers)]
    assert world.metrics.value("totem.token.wanted") >= len(askers)
    assert world.metrics.value("totem.token.handoffs") == handoffs + 1
    world.run(until=world.now + 0.05)
    world.audit(strict=True)


def test_request_overtaken_by_a_send_is_dropped_at_the_next_visit(world):
    """m1 asks m0, where the token it has just forwarded was going to
    park; m3 sends before the token gets there, so the visit at m0 is an
    ordinary one: the stale request is dropped, and the rotation that
    m3's send restarted serves m1 in its turn."""
    transport, members, delivered = build(world, 5)
    m0, m1, _, m3, _ = members
    settle(world, members)
    inner = m1._dispatch[Token]
    armed = []

    def after_m1s_idle_visit(token):
        inner(token)
        if armed and token.idle == 1:       # heading for m0, four hops on
            armed.clear()
            world.scheduler.call_after(0.0003, m1.multicast, "asked m0")
            world.scheduler.call_after(0.0003, m3.multicast, "cut in")

    m1._dispatch[Token] = after_m1s_idle_visit
    m0.multicast("rotate")                  # sequenced at m0: idle count 0
    armed.append(True)
    world.scheduler.run_until(lambda: delivered["m0"], timeout=1.0)
    handoffs = world.metrics.value("totem.token.handoffs")
    asked = world.metrics.value("totem.token.wanted")
    world.scheduler.run_until(lambda: len(delivered["m0"]) == 3, timeout=1.0)
    assert delivered["m0"] == ["rotate", "cut in", "asked m0"]
    # m1 asked; m3, which has heard "rotate" since its last visit, knows
    # the token is on a full rotation and did not.
    assert world.metrics.value("totem.token.wanted") == asked + 1
    assert not m0._wanted
    assert world.metrics.value("totem.token.handoffs") == handoffs
    world.run(until=world.now + 0.05)
    world.audit(strict=True)


def test_withdrawn_before_the_hand_off_arrives(world):
    """The token comes as asked, finds nothing to sequence and keeps
    rotating: it parks a full rotation later, at the predecessor."""
    transport, members, delivered = build(world, 5)
    members[0].multicast("park at m0")
    assert settle(world, members) is members[0]
    parks = world.metrics.value("totem.token.parked")
    asked = world.now
    entry = members[3].multicast("changed my mind")
    assert members[3].withdraw(entry)
    world.scheduler.run_until(lambda: not members[0].parked, timeout=1.0)
    assert settle(world, members) is members[2]
    assert world.now - asked == pytest.approx(2 * LAN + 4 * HOP)
    assert world.metrics.value("totem.token.parked") == parks + 1
    assert world.metrics.value("totem.msg.sent") == 1
    assert all(delivered[m.name] == ["park at m0"] for m in members)
    world.audit(strict=True)


def test_hand_off_over_a_dead_member_delays_its_detection_by_one_rest(
        world):
    """The price of the direct hand-off, at its worst: m2 dies while the
    token is parked at m0, and just before the keep-alive that would
    have run into it m3 asks — the jump passes over m2 and the rotation
    refreshes every survivor's loss timer once more before the token is
    swallowed.  A rotating token would have been swallowed within a
    rotation of the crash; this one is missed no later than one rest
    (a twelfth of the timeout) after that."""
    transport, members, delivered = build(world, 5)
    seen = watch_tokens(members)
    members[0].multicast("park at m0")
    assert settle(world, members) is members[0]
    world.run(until=world.now + 0.0005)
    crashed = world.now
    world.faults.crash_now("m2")
    handoffs = world.metrics.value("totem.token.handoffs")
    world.scheduler.call_after(0.001, members[3].multicast, "over m2")
    survivors = [m for m in members if m.name != "m2"]
    world.scheduler.run_until(reformed(survivors), timeout=1.0)
    assert world.metrics.value("totem.token.handoffs") == handoffs + 1
    losses = token_losses(world)
    for name, at in losses.items():
        assert at == pytest.approx(seen[name] + LOSS)
    assert crashed + LOSS < min(losses.values()) \
        <= crashed + LOSS + KEEPALIVE + HOP
    world.run(until=world.now + 0.1)
    assert all(delivered[m.name] == ["park at m0", "over m2"]
               for m in survivors)
    world.audit(strict=True)


# ----------------------------------------------------------------------
# The originator's copy: a sender hears its own frames from its send
# path, not back off the LAN
# ----------------------------------------------------------------------

def test_a_frame_costs_the_others_one_event_and_its_sender_nothing(world):
    """On a five-member ring a frame is four datagrams in one delivery
    event; the sender's own listener runs at the instant of the visit
    that sequenced it, once the token has left."""
    transport, members, delivered = build(world, 5)
    holder = settle(world, members)
    sender = members[(members.index(holder) + 2) % 5]
    network, scheduler = world.network, world.scheduler
    costs, token_sent, arrived, heard = [], [], [], []
    inner_frame, inner_unicast = transport.broadcast_frame, transport.unicast

    def frame_spy(member, messages):
        before = (network.datagrams_sent, scheduler.pending_events)
        frame = inner_frame(member, messages)
        costs.append((network.datagrams_sent - before[0],
                      scheduler.pending_events - before[1]))
        return frame

    def unicast_spy(member, target, message, **kwargs):
        if member is sender and isinstance(message, Token):
            token_sent.append(world.now)
        inner_unicast(member, target, message, **kwargs)

    def token_spy(token, inner=sender._dispatch[Token]):
        arrived.append(world.now)
        inner(token)

    transport.broadcast_frame = frame_spy
    transport.unicast = unicast_spy
    sender._dispatch[Token] = token_spy
    sender.on_deliver(lambda seq, snd, payload:
                      heard.append((world.now, list(token_sent))))
    sender.multicast("x")
    world.scheduler.run_until(
        lambda: all(delivered[m.name] == ["x"] for m in members), timeout=1.0)
    assert costs == [(4, 1)]
    (visit,) = arrived                        # handed the token once
    assert heard == [(visit, [visit])]        # at the visit, token gone
    world.run(until=world.now + 0.05)
    world.audit(strict=True)


def test_a_parked_sender_hears_itself_after_multicast_returns(world):
    """The token is parked at m0, so m0's multicast() runs the visit on
    the caller's stack; m0's listener, which multicasts in turn, is
    called only once that multicast() has returned — in the same
    instant — and the reply is ordered right behind."""
    transport, members, delivered = build(world, 5)
    m0 = members[0]
    m0.multicast("park at m0")
    assert settle(world, members) is m0
    depth, calls = [0], []
    inner = m0.multicast

    def multicast(payload, size=64):
        depth[0] += 1
        try:
            return inner(payload, size)
        finally:
            depth[0] -= 1

    def listener(seq, sender, payload):
        calls.append((payload, depth[0], world.now))
        if payload == "first":
            m0.multicast("reply")

    m0.multicast = multicast
    m0.on_deliver(listener)
    sent = world.now
    m0.multicast("first")
    assert calls == []                        # not inside multicast()
    world.scheduler.run_until(
        lambda: all(len(delivered[m.name]) == 3 for m in members),
        timeout=1.0)
    assert all(delivered[m.name] == ["park at m0", "first", "reply"]
               for m in members)
    assert [call[:2] for call in calls] == [("first", 0), ("reply", 0)]
    assert calls[0][2] == sent                # heard in the sending instant
    world.run(until=world.now + 0.05)
    world.audit(strict=True)


def test_a_sender_crashed_by_its_own_listener_stops_hearing_its_visit(world):
    """m0 sequences four messages in one visit, a frame each, and dies
    delivering the second to itself: it hears no more, while the
    survivors, whose copies were on the LAN before it died, deliver all
    four in m0's order."""
    transport, members, delivered = build(world, 3)
    m0 = members[0]
    members[1].multicast("park at m1")
    assert settle(world, members) is members[1]

    def poisoned(seq, sender, payload):
        if payload == "poison":
            world.faults.crash_now("m0")

    m0.on_deliver(poisoned)
    visits = m0.stats["token_passes"]
    for payload in ("a", "poison", "b", "c"):
        m0.multicast(payload)               # one TokenWanted, then queued
    survivors = members[1:]
    world.scheduler.run_until(reformed(survivors), timeout=1.0)
    assert m0.stats["token_passes"] == visits + 1
    assert world.metrics.histogram("totem.frame.messages").max == 1
    assert delivered["m0"] == ["park at m1", "a", "poison"]
    assert delivered["m1"] == delivered["m2"] \
        == ["park at m1", "a", "poison", "b", "c"]
    world.run(until=world.now + 0.05)
    world.audit(strict=True)


def test_every_member_delivers_the_same_sequence_with_many_senders(world):
    """Parked-holder sends, hand-offs, sends on a moving token, bursts in
    one instant and sends from inside a listener: each member's delivered
    (seq, sender, payload) sequence is the same, gap-free and complete."""
    transport, members, delivered = build(world, 5)
    settle(world, members)
    logs = {m.name: [] for m in members}
    for member in members:
        member.on_deliver(lambda seq, sender, payload, log=logs[member.name]:
                          log.append((seq, sender, payload)))

    def echo(seq, sender, payload):
        if sender == "m4" and not payload.startswith("echo"):
            members[2].multicast(f"echo {payload}")

    members[2].on_deliver(echo)
    start = world.now
    for i in range(40):
        at = start + (i // 3) * 0.0009 + (0.004 if i % 7 == 0 else 0.0)
        world.scheduler.call_at(at, members[(3 * i) % 5].multicast, f"p{i}")
    world.scheduler.run_until(
        lambda: all(len(log) == 48 for log in logs.values()), timeout=1.0)
    world.run(until=world.now + 0.05)
    reference = logs["m0"]
    assert all(log == reference for log in logs.values())
    seqs = [seq for seq, _, _ in reference]
    assert seqs == list(range(seqs[0], seqs[0] + 48))
    assert {payload for _, _, payload in reference} == \
        {f"p{i}" for i in range(40)} | {f"echo p{i}" for i in range(40)
                                        if (3 * i) % 5 == 4}
    world.audit(strict=True)


def _spy_regathers(world, members):
    """(time, member, reason) of every later entry into GATHER."""
    seen = []
    for member in members:
        def spy(reason, member=member, enter=member._enter_gather):
            seen.append((world.now, member.name, reason))
            enter(reason)
        member._enter_gather = spy
    return seen


def test_members_regather_when_the_leader_dies_before_committing(world):
    """The would-be leader joins the gather, then dies: the others wait
    one gather window plus REJOIN_BACKOFF for its commit, then gather
    again without it."""
    transport, members, delivered = build(world, 3)
    m0, m1, m2 = members
    m2._enter_gather("test")
    world.scheduler.run_until(
        lambda: all("m0" in m._candidates for m in (m1, m2)), timeout=1.0)
    world.faults.crash_now("m0")
    regathers = _spy_regathers(world, (m1, m2))
    world.scheduler.run_until(
        lambda: all(m.state == TotemMember.OPERATIONAL
                    and m.members == ("m1", "m2") for m in (m1, m2)),
        timeout=1.0)
    assert sorted(name for _, name, reason in regathers
                  if reason == "commit wait expired") == ["m1", "m2"]
    m1.multicast("after")
    world.scheduler.run_until(lambda: "after" in delivered["m2"],
                              timeout=1.0)


def test_member_excluded_by_a_commit_rejoins_after_backoff(world):
    transport, members, delivered = build(world, 3)
    m2 = members[2]
    m2._enter_gather("test")
    regathers = _spy_regathers(world, members)
    excluded_at = world.now
    m2.receive(CommitMessage(ring_id=(m2.ring_id[0] + 5, "m0"),
                             members=("m0", "m1"), start_seq=0,
                             leader="m0"))
    assert m2.state == TotemMember.GATHER
    world.scheduler.run_until(
        lambda: all(m.state == TotemMember.OPERATIONAL
                    and len(m.members) == 3 for m in members), timeout=1.0)
    assert [(t, name) for t, name, reason in regathers
            if reason == "rejoin after exclusion"] == [
        (pytest.approx(excluded_at + REJOIN_BACKOFF), "m2")]
