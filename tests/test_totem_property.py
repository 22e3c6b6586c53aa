"""Property-based tests for the Totem total-order invariants.

These drive the real protocol over the simulated network with
randomised traffic and crash schedules, then check the two invariants
Eternal builds on: (1) survivors deliver a common totally-ordered
prefix-free sequence — identical order, no duplicates; (2) per-sender
FIFO is preserved within the total order.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import World
from repro.sim.network import LatencyModel
from repro.totem import TotemConfig, TotemMember, TotemTransport


def build_ring(world, count):
    transport = TotemTransport(world.network, "d")
    members, delivered = [], {}
    for i in range(count):
        host = world.add_host(f"n{i}", site="lan")
        member = TotemMember(host, f"n{i}", transport)
        delivered[member.name] = []
        member.on_deliver(lambda seq, snd, payload, n=member.name:
                          delivered[n].append((seq, snd, payload)))
        members.append(member)
    for member in members:
        member.start()
    world.scheduler.run_until(
        lambda: all(m.state == TotemMember.OPERATIONAL and
                    len(m.members) == count for m in members), timeout=30.0)
    return members, delivered


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=5),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 100)),
                min_size=1, max_size=30),
       st.integers(0, 2**31 - 1))
def test_identical_total_order_property(n, sends, seed):
    world = World(seed=seed, trace=False)
    members, delivered = build_ring(world, n)
    total = 0
    for sender_index, payload in sends:
        members[sender_index % n].multicast((sender_index % n, payload, total))
        total += 1
    world.scheduler.run_until(
        lambda: all(len(delivered[m.name]) == total for m in members),
        timeout=120.0)
    reference = delivered[members[0].name]
    for member in members[1:]:
        assert delivered[member.name] == reference
    seqs = [s for (s, _, _) in reference]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=3, max_value=5),
       st.integers(0, 2**31 - 1),
       st.data())
def test_survivors_agree_after_crash_property(n, seed, data):
    world = World(seed=seed, trace=False)
    members, delivered = build_ring(world, n)
    victim = data.draw(st.integers(0, n - 1), label="victim")
    crash_after = data.draw(st.floats(0.0, 0.02), label="crash_delay")
    # Everyone sends a burst; the victim crashes somewhere inside it.
    for i, member in enumerate(members):
        for j in range(4):
            member.multicast((i, j))
    world.faults.crash_host(f"n{victim}", world.now + crash_after)
    world.run(until=world.now + 3.0)
    survivors = [m for m in members if m.name != f"n{victim}"]
    # All survivors are operational on the same reformed ring.
    assert all(m.state == TotemMember.OPERATIONAL for m in survivors)
    ring_ids = {m.ring_id for m in survivors}
    assert len(ring_ids) == 1
    # Identical delivery sequences among survivors.
    reference = delivered[survivors[0].name]
    for member in survivors[1:]:
        assert delivered[member.name] == reference
    # Survivors' own messages were all delivered (sender FIFO intact).
    for i, member in enumerate(members):
        if member.name == f"n{victim}":
            continue
        own = [p for (_, snd, p) in reference if snd == member.name]
        assert own == [(i, j) for j in range(4)]


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_sequence_numbers_survive_reformation_property(n, seed):
    """Sequence numbers never regress across a membership change — the
    uniqueness property Figure 6 identifiers rely on."""
    world = World(seed=seed, trace=False)
    members, delivered = build_ring(world, n + 1)
    for member in members:
        member.multicast("pre")
    world.scheduler.run_until(
        lambda: all(len(delivered[m.name]) == n + 1 for m in members),
        timeout=60.0)
    world.faults.crash_now(members[-1].name)
    world.run(until=world.now + 1.0)
    for member in members[:-1]:
        member.multicast("post")
    survivors = members[:-1]
    world.scheduler.run_until(
        lambda: all(len(delivered[m.name]) == 2 * n + 1 for m in survivors),
        timeout=60.0)
    seqs = [s for (s, _, _) in delivered[members[0].name]]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


# ----------------------------------------------------------------------
# The idle token: a parked ring must not make a sender wait longer than
# a rotating one did
# ----------------------------------------------------------------------

LAN = LatencyModel().local_latency
HOLD = TotemConfig().token_hold
HOP = HOLD + LAN
# Park to park on the largest ring tried: covers every phase of a cycle.
KEEPALIVE_CYCLE = TotemConfig().token_loss_timeout / 12 + 6 * HOP


def waits_to_sequencing(n, sends):
    """``sends``: (member index, seconds after a common start).  Returns
    each send's wait from ``multicast`` to the token visit that
    sequenced it (its own delivery, heard at that visit's instant)."""
    world = World(seed=1, trace=False)
    members, delivered = build_ring(world, n)
    world.run(until=world.now + 0.05)         # parked, keep-alives running
    start, sent, got = world.now, {}, {}
    for member in members:
        member.on_deliver(
            lambda seq, sender, tag, me=member.name:
            got.setdefault(tag, world.now) if sender == me else None)
    for tag, (index, offset) in enumerate(sends):
        def fire(member=members[index % n], tag=tag):
            sent[tag] = world.now
            member.multicast(tag)
        world.scheduler.call_at(start + offset, fire)
    world.scheduler.run_until(lambda: len(got) == len(sends), timeout=1.0)
    world.run(until=world.now + 0.05)
    world.audit(strict=True)
    return [got[tag] - sent[tag] for tag in range(len(sends))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(0, 5),
       st.floats(0.0, KEEPALIVE_CYCLE, allow_nan=False))
def test_lone_sender_waits_at_most_one_rotation_property(n, sender, phase):
    """Whatever the phase of the keep-alive cycle it sends in, a lone
    sender in a quiet ring reaches the token no later than the worst
    case of a token in constant rotation, n x (token_hold + LAN): it is
    the holder, or it asks the holder (one LAN hop there, one back), or
    it knows the token is on its way round."""
    (wait,) = waits_to_sequencing(n, [(sender, phase)])
    assert wait <= n * HOP + 1e-9


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(0, 5), st.integers(0, 5),
       st.floats(0.0, KEEPALIVE_CYCLE, allow_nan=False),
       st.floats(0.0, 0.004, allow_nan=False))
@example(5, 1, 0, 0.0043983, 0.0013)  # 3.79 ms against a 3.5 ms rotation
@example(3, 1, 0, 0.0021543, 0.0001)  # 2.38 ms against 2.1 ms
@example(3, 1, 0, 0.0027833, 0.0001)  # 2.30 ms: the worst with a long rest
def test_pair_of_senders_wait_is_bounded_property(n, first, second, phase,
                                                  gap):
    """Two senders, any phase, any distance apart.  Each is visited
    within a rotation of the hand-off that serves the first of them; the
    one case that exceeds n x (token_hold + LAN) is a member the
    hand-off jumped over while its own TokenWanted was still in flight,
    and it exceeds it by what a LAN hop costs over a token hold."""
    waits = waits_to_sequencing(n, [(first, phase), (second, phase + gap)])
    assert max(waits) <= n * HOP + max(0.0, LAN - HOLD) + 1e-9
    assert min(waits) <= n * HOP + 1e-9
