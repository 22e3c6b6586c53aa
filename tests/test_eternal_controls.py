"""Tests for control-message idempotency and registry convergence.

The infrastructure's correctness rests on every control mutation being
idempotent (replicated managers emit redundantly) and on all processors
converging to identical registries.  These tests inject duplicate and
out-of-order control messages directly.
"""

import pytest

from repro import ReplicationStyle, World
from repro.eternal import DomainMessage, GroupInfo, MsgKind

from tests.helpers import make_counter_group, make_domain, replica_counts


def broadcast_control(domain, kind, **data):
    domain.coordinator_rm().multicast(DomainMessage(
        kind=kind, source_group=0, target_group=0, data=data))


def registries_identical(domain):
    snapshots = []
    for rm in domain.rms.values():
        if rm.alive:
            snapshots.append(tuple(
                (g.group_id, g.name, g.placement, g.version)
                for g in rm.registry.all_groups()))
    return len(set(snapshots)) == 1


def test_duplicate_group_announce_is_harmless(world):
    domain = make_domain(world)
    group = make_counter_group(domain)
    world.await_promise(group.invoke("increment", 3))
    info = group.info()
    for _ in range(3):
        broadcast_control(domain, MsgKind.GROUP_ANNOUNCE, info=info)
    world.run(until=world.now + 0.5)
    # State survived, replicas not re-created, registries identical.
    assert set(replica_counts(domain, group).values()) == {3}
    assert registries_identical(domain)


def test_duplicate_add_replica_transfers_state_once(world):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=2)
    world.await_promise(group.invoke("increment", 5))
    spare = [h for h in domain.replica_host_names
             if h not in group.info().placement][0]
    for _ in range(3):  # every host's resource manager might emit one
        broadcast_control(domain, MsgKind.ADD_REPLICA,
                          group_id=group.group_id, host=spare)
    world.run(until=world.now + 1.0)
    assert group.info().placement.count(spare) == 1
    record = domain.rms[spare].replicas[group.group_id]
    assert record.ready and record.servant.count == 5
    transfers = sum(rm.stats["state_transfers_sent"]
                    for rm in domain.rms.values())
    assert transfers == 1
    assert registries_identical(domain)


def test_duplicate_remove_replica_is_idempotent(world):
    domain = make_domain(world)
    group = make_counter_group(domain, replicas=3, min_replicas=1)
    world.await_promise(group.invoke("increment", 1))
    victim = group.info().placement[2]
    for _ in range(2):
        broadcast_control(domain, MsgKind.REMOVE_REPLICA,
                          group_id=group.group_id, host=victim)
    world.run(until=world.now + 0.5)
    assert victim not in group.info().placement
    assert group.group_id not in domain.rms[victim].replicas
    assert registries_identical(domain)


def test_group_remove_mid_traffic(world):
    domain = make_domain(world)
    group = make_counter_group(domain, min_replicas=1)
    world.await_promise(group.invoke("increment", 1))
    broadcast_control(domain, MsgKind.GROUP_REMOVE, group_id=group.group_id)
    world.run(until=world.now + 0.5)
    for rm in domain.rms.values():
        assert group.group_id not in rm.replicas
        assert rm.registry.get(group.group_id) is None
    assert registries_identical(domain)


def test_control_for_unknown_group_is_ignored(world):
    domain = make_domain(world)
    broadcast_control(domain, MsgKind.ADD_REPLICA, group_id=424242,
                      host="dom-h0")
    broadcast_control(domain, MsgKind.REMOVE_REPLICA, group_id=424242,
                      host="dom-h0")
    broadcast_control(domain, MsgKind.GROUP_REMOVE, group_id=424242)
    world.run(until=world.now + 0.5)
    assert registries_identical(domain)


def test_stale_checkpoint_does_not_regress_state(world):
    domain = make_domain(world)
    group = make_counter_group(domain, style=ReplicationStyle.COLD_PASSIVE,
                               checkpoint_interval=2)
    for _ in range(5):
        world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 0.5)
    # Replay an old checkpoint (ts far in the past): must be ignored.
    domain.coordinator_rm().multicast(DomainMessage(
        kind=MsgKind.CHECKPOINT, source_group=group.group_id,
        target_group=group.group_id,
        data={"state": {"count": 0}, "upto_ts": 1}))
    world.run(until=world.now + 0.5)
    assert world.await_promise(group.invoke("value")) == 5


def test_registries_converge_after_mixed_operations(world):
    domain = make_domain(world, num_hosts=4)
    a = make_counter_group(domain, name="A", replicas=2)
    b = make_counter_group(domain, name="B", replicas=3, min_replicas=2)
    world.await_promise(a.invoke("increment", 1))
    world.await_promise(b.invoke("increment", 1))
    world.faults.crash_now(b.info().placement[0])
    world.run(until=world.now + 2.0)
    assert registries_identical(domain)
