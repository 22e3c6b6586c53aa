"""Integration tests for the Totem-style total-order multicast."""

import pytest

from repro import ReplicationStyle
from repro.sim import World
from repro.totem import TotemConfig, TotemMember, TotemTransport

from tests.helpers import make_domain, ready_counter_group


class Harness:
    """Builds a ring of members on distinct hosts and records deliveries."""

    def __init__(self, world, count, site="lan"):
        self.world = world
        self.transport = TotemTransport(world.network, "domain")
        self.members = []
        self.delivered = {}   # name -> list of (seq, sender, payload)
        self.memberships = {} # name -> list of member tuples
        for i in range(count):
            host = world.add_host(f"p{i}", site=site)
            member = TotemMember(host, f"p{i}", self.transport)
            self.delivered[member.name] = []
            self.memberships[member.name] = []
            member.on_deliver(
                lambda seq, sender, payload, n=member.name:
                self.delivered[n].append((seq, sender, payload)))
            member.on_membership(
                lambda members, ring_id, n=member.name:
                self.memberships[n].append(members))
            self.members.append(member)
        for member in self.members:
            member.start()

    def wait_operational(self, names=None):
        names = names or [m.name for m in self.members]
        live = [m for m in self.members if m.name in names]
        self.world.scheduler.run_until(
            lambda: all(m.state == TotemMember.OPERATIONAL and
                        set(m.members) == set(names) for m in live),
            timeout=30.0)

    def payloads(self, name):
        return [p for (_, _, p) in self.delivered[name]]


def test_ring_forms_and_reaches_operational():
    world = World(seed=1)
    ring = Harness(world, 3)
    ring.wait_operational()
    for member in ring.members:
        assert member.members == ("p0", "p1", "p2")


def test_single_member_ring():
    world = World(seed=2)
    ring = Harness(world, 1)
    ring.wait_operational()
    ring.members[0].multicast("solo")
    world.scheduler.run_until(lambda: ring.payloads("p0") == ["solo"])


def test_multicast_delivered_to_all_members():
    world = World(seed=3)
    ring = Harness(world, 3)
    ring.wait_operational()
    ring.members[0].multicast("hello")
    world.scheduler.run_until(
        lambda: all(ring.payloads(f"p{i}") == ["hello"] for i in range(3)))


def test_total_order_is_identical_everywhere():
    world = World(seed=4)
    ring = Harness(world, 4)
    ring.wait_operational()
    for i, member in enumerate(ring.members):
        for j in range(5):
            member.multicast(f"m{i}.{j}")
    world.scheduler.run_until(
        lambda: all(len(ring.delivered[f"p{i}"]) == 20 for i in range(4)),
        timeout=60.0)
    orders = [ring.payloads(f"p{i}") for i in range(4)]
    assert orders[0] == orders[1] == orders[2] == orders[3]
    seqs = [s for (s, _, _) in ring.delivered["p0"]]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 20


def test_sender_receives_its_own_messages():
    world = World(seed=5)
    ring = Harness(world, 2)
    ring.wait_operational()
    ring.members[1].multicast("self-delivery")
    world.scheduler.run_until(lambda: ring.payloads("p1") == ["self-delivery"])


def test_sequence_numbers_strictly_increase():
    world = World(seed=6)
    ring = Harness(world, 3)
    ring.wait_operational()
    for _ in range(10):
        ring.members[2].multicast("x")
    world.scheduler.run_until(lambda: len(ring.delivered["p0"]) == 10,
                              timeout=60.0)
    seqs = [s for (s, _, _) in ring.delivered["p0"]]
    assert all(b > a for a, b in zip(seqs, seqs[1:]))


def test_member_crash_triggers_reformation():
    world = World(seed=7)
    ring = Harness(world, 3)
    ring.wait_operational()
    world.faults.crash_now("p1")
    survivors = ["p0", "p2"]
    ring.wait_operational(survivors)
    for name in survivors:
        member = next(m for m in ring.members if m.name == name)
        assert set(member.members) == {"p0", "p2"}


def test_multicast_continues_after_crash():
    world = World(seed=8)
    ring = Harness(world, 3)
    ring.wait_operational()
    ring.members[0].multicast("before")
    world.scheduler.run_until(lambda: "before" in ring.payloads("p2"))
    world.faults.crash_now("p1")
    ring.wait_operational(["p0", "p2"])
    ring.members[0].multicast("after")
    world.scheduler.run_until(lambda: "after" in ring.payloads("p2"),
                              timeout=30.0)
    assert ring.payloads("p0") == ring.payloads("p2") == ["before", "after"]


def test_messages_queued_during_reformation_are_delivered():
    world = World(seed=9)
    ring = Harness(world, 3)
    ring.wait_operational()
    world.faults.crash_now("p2")
    # Queue immediately, before the survivors have even noticed.
    ring.members[0].multicast("queued-during-failure")
    ring.wait_operational(["p0", "p1"])
    world.scheduler.run_until(
        lambda: "queued-during-failure" in ring.payloads("p1"), timeout=30.0)


def test_recovered_member_rejoins_and_sees_new_traffic():
    world = World(seed=10)
    ring = Harness(world, 3)
    ring.wait_operational()
    world.faults.crash_now("p1")
    ring.wait_operational(["p0", "p2"])
    # Recover the processor and start a fresh member process on it.
    world.faults.recover_now("p1")
    host = world.network.host("p1")
    rejoined = TotemMember(host, "p1", ring.transport)
    ring.delivered["p1"] = []
    rejoined.on_deliver(
        lambda seq, sender, payload: ring.delivered["p1"].append(
            (seq, sender, payload)))
    rejoined.start()
    world.scheduler.run_until(
        lambda: rejoined.state == TotemMember.OPERATIONAL and
        set(rejoined.members) == {"p0", "p1", "p2"}, timeout=30.0)
    ring.members[0].multicast("post-rejoin")
    world.scheduler.run_until(
        lambda: "post-rejoin" in [p for (_, _, p) in ring.delivered["p1"]],
        timeout=30.0)


def test_partition_forms_two_rings():
    world = World(seed=11)
    ring = Harness(world, 4)
    ring.wait_operational()
    world.network.partition({"p0", "p1"}, {"p2", "p3"})
    world.run(until=world.now + 1.0)
    side_a = [m for m in ring.members if m.name in ("p0", "p1")]
    side_b = [m for m in ring.members if m.name in ("p2", "p3")]
    assert all(set(m.members) == {"p0", "p1"} for m in side_a)
    assert all(set(m.members) == {"p2", "p3"} for m in side_b)
    # Ring identities diverge so cross-partition traffic is rejected.
    assert side_a[0].ring_id != side_b[0].ring_id


def test_heal_after_partition_reunites_ring():
    world = World(seed=12)
    ring = Harness(world, 4)
    ring.wait_operational()
    world.network.partition({"p0", "p1"}, {"p2", "p3"})
    world.run(until=world.now + 1.0)
    world.network.heal_partitions()
    # Healing alone does not trigger joins; the next reformation does.
    # Nudge by having one side notice the other via a join broadcast:
    # a token loss in one side is not needed — members re-gather when
    # they hear a foreign join, so force one member to re-join.
    side_b_member = next(m for m in ring.members if m.name == "p2")
    side_b_member._enter_gather("test heal")
    world.scheduler.run_until(
        lambda: all(set(m.members) == {"p0", "p1", "p2", "p3"}
                    for m in ring.members), timeout=30.0)


def test_flow_control_bounds_messages_per_token_visit():
    world = World(seed=13)
    config = TotemConfig(max_messages_per_token=2)
    transport = TotemTransport(world.network, "d")
    members = []
    delivered = []
    for i in range(2):
        host = world.add_host(f"q{i}")
        member = TotemMember(host, f"q{i}", transport, config=config)
        members.append(member)
    members[0].on_deliver(lambda s, snd, p: delivered.append(p))
    for member in members:
        member.start()
    world.scheduler.run_until(
        lambda: all(m.state == TotemMember.OPERATIONAL for m in members))
    for j in range(10):
        members[0].multicast(j)
    world.scheduler.run_until(lambda: len(delivered) == 10, timeout=60.0)
    assert delivered == list(range(10))


def test_delivery_order_survives_heavy_cross_traffic():
    world = World(seed=14)
    ring = Harness(world, 5)
    ring.wait_operational()
    total = 0
    for i, member in enumerate(ring.members):
        for j in range(8):
            member.multicast((i, j))
            total += 1
    world.scheduler.run_until(
        lambda: all(len(ring.delivered[f"p{i}"]) == total for i in range(5)),
        timeout=120.0)
    reference = ring.payloads("p0")
    for i in range(1, 5):
        assert ring.payloads(f"p{i}") == reference
    # Per-sender FIFO: each member's own messages appear in send order.
    for i in range(5):
        own = [p for p in reference if p[0] == i]
        assert own == [(i, j) for j in range(8)]


# ----------------------------------------------------------------------
# Ring-size sweep (E2b): Eternal's costs (Figure 2) bottom out here
# ----------------------------------------------------------------------

@pytest.mark.parametrize("size", [2, 3, 5, 8])
def test_multicast_latency_by_ring_size(size):
    messages = 40
    world = World(seed=200 + size)
    ring = Harness(world, size)
    ring.wait_operational()
    t0 = world.now
    for i in range(messages):
        ring.members[i % size].multicast(i)
    world.scheduler.run_until(
        lambda: all(len(ring.delivered[m.name]) == messages
                    for m in ring.members), timeout=600.0)
    assert len({tuple(ring.payloads(m.name)) for m in ring.members}) == 1
    # Shape: per-message cost grows roughly with rotation time (linear
    # in ring size), far below a naive n^2 unicast mesh.
    assert (world.now - t0) / messages < 0.010 * size


@pytest.mark.parametrize("size", [3, 5, 8])
def test_reformation_time_by_ring_size(size):
    world = World(seed=300 + size)
    ring = Harness(world, size)
    ring.wait_operational()
    victim = ring.members[size // 2].name
    t0 = world.now
    world.faults.crash_now(victim)
    ring.wait_operational([m.name for m in ring.members if m.name != victim])
    # Reformation = token-loss timeout + gather + commit: tens of ms,
    # dominated by the loss timeout, nearly flat in ring size.
    assert 0.02 < world.now - t0 < 0.2


# ----------------------------------------------------------------------
# Tuning ablation (E13): detection timeout and token hold
# ----------------------------------------------------------------------

def tuned_counter(config, seed):
    world = World(seed=seed)
    domain = make_domain(world, num_hosts=4, totem_config=config)
    group = ready_counter_group(domain, style=ReplicationStyle.ACTIVE,
                                min_replicas=2)
    return world, group


def failover_latency(loss_timeout):
    """Replica crash to the next completed invocation."""
    world, group = tuned_counter(
        TotemConfig(token_loss_timeout=loss_timeout), seed=1300)
    world.await_promise(group.invoke("increment", 1), timeout=600)
    t0 = world.now
    world.faults.crash_now(group.info().placement[0])
    world.await_promise(group.invoke("increment", 1), timeout=600)
    return world.now - t0


def invocation_latency(token_hold):
    world, group = tuned_counter(TotemConfig(token_hold=token_hold),
                                 seed=1301)
    world.await_promise(group.invoke("increment", 1), timeout=600)
    t0 = world.now
    for _ in range(10):
        world.await_promise(group.invoke("increment", 1), timeout=600)
    return (world.now - t0) / 10


@pytest.mark.parametrize("loss_timeout", [0.0125, 0.025, 0.05, 0.1])
def test_failover_tracks_detection_timeout(loss_timeout):
    latency = failover_latency(loss_timeout)
    # Failover latency is bounded below by the detection timeout and
    # stays within a few multiples of it (gather + replay are fast).
    assert loss_timeout <= latency < loss_timeout * 4 + 0.05


@pytest.mark.parametrize("token_hold", [0.0002, 0.001, 0.005])
def test_invocation_latency_tracks_rotation_time(token_hold):
    # One invocation needs roughly one rotation for the request and one
    # for the responses; rotation ~ ring size x (hold + hop).
    rotation = 5 * (token_hold + 0.0005)
    assert invocation_latency(token_hold) < 4 * rotation + 0.01


def test_tuning_tradeoff():
    """Faster detection buys faster failover; a shorter hold buys
    lower invocation latency."""
    assert failover_latency(0.0125) < failover_latency(0.1)
    assert invocation_latency(0.0002) < invocation_latency(0.005)
