"""Integration tests: warm and cold passive replication, failover, recovery."""

import pytest

from repro import ReplicationStyle, World
from repro.eternal import GroupLog

from tests.helpers import (
    make_bank,
    make_counter_group,
    make_domain,
    replica_counts,
    transfer_then_read,
)


def primary_of(domain, group):
    info = group.info()
    return info.primary(domain.coordinator_rm().live_hosts)


def test_warm_passive_only_primary_executes(world):
    domain = make_domain(world)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE)
    before = {host: rm.stats["invocations_executed"]
              for host, rm in domain.rms.items()}
    world.await_promise(group.invoke("increment", 5))
    world.run(until=world.now + 0.1)
    primary = primary_of(domain, group)
    for host, rm in domain.rms.items():
        if group.group_id in rm.replicas:
            expected = 1 if host == primary else 0
            assert rm.stats["invocations_executed"] - before[host] == expected


def test_warm_passive_backups_track_state_via_updates(world):
    domain = make_domain(world)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE)
    for _ in range(4):
        world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 0.2)
    # Every replica (not just the primary) holds the current state.
    assert set(replica_counts(domain, group).values()) == {4}


def test_warm_passive_failover_preserves_state(world):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE,
                               replicas=3, min_replicas=2)
    for _ in range(5):
        world.await_promise(group.invoke("increment", 1))
    old_primary = primary_of(domain, group)
    world.faults.crash_now(old_primary)
    assert world.await_promise(group.invoke("increment", 1)) == 6
    assert primary_of(domain, group) != old_primary


def test_cold_passive_checkpoints_are_periodic(world):
    domain = make_domain(world)
    group = make_counter_group(domain, style=ReplicationStyle.COLD_PASSIVE,
                               checkpoint_interval=3)
    for _ in range(7):
        world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 0.2)
    primary = primary_of(domain, group)
    rm = domain.rms[primary]
    assert rm.stats["checkpoints"] >= 2
    # A backup holds the checkpoint and only the log suffix.
    backup = [h for h in group.info().placement if h != primary][0]
    log = domain.rms[backup].logs[group.group_id]
    assert log.checkpoint is not None
    assert len(log) < 7


def test_cold_passive_failover_replays_log_suffix(world):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, style=ReplicationStyle.COLD_PASSIVE,
                               replicas=3, min_replicas=2,
                               checkpoint_interval=3)
    for _ in range(7):
        world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 0.2)
    old_primary = primary_of(domain, group)
    world.faults.crash_now(old_primary)
    # The new primary restores checkpoint state (6 ops) and replays the
    # logged suffix (1 op) before executing new work.
    assert world.await_promise(group.invoke("increment", 1)) == 8
    new_primary = primary_of(domain, group)
    assert domain.rms[new_primary].stats["replays"] >= 1


def test_cold_passive_two_successive_failovers(world):
    domain = make_domain(world, num_hosts=5)
    group = make_counter_group(domain, style=ReplicationStyle.COLD_PASSIVE,
                               replicas=3, min_replicas=1,
                               checkpoint_interval=2)
    for _ in range(5):
        world.await_promise(group.invoke("increment", 1))
    world.faults.crash_now(primary_of(domain, group))
    assert world.await_promise(group.invoke("increment", 1)) == 6
    world.faults.crash_now(primary_of(domain, group))
    assert world.await_promise(group.invoke("increment", 1)) == 7


def test_passive_backup_logs_but_does_not_respond(world):
    domain = make_domain(world)
    group = make_counter_group(domain, style=ReplicationStyle.COLD_PASSIVE)
    before = {host: rm.stats["invocations_executed"]
              for host, rm in domain.rms.items()}
    world.await_promise(group.invoke("increment", 3))
    world.run(until=world.now + 0.1)
    primary = primary_of(domain, group)
    backups = [h for h in group.info().placement if h != primary]
    for backup in backups:
        rm = domain.rms[backup]
        assert rm.stats["invocations_executed"] == before[backup]
        assert len(rm.logs[group.group_id]) >= 1


def test_failover_resends_responses_for_unacknowledged_ops(world):
    """If the primary dies right after executing, the new primary's
    replay re-multicasts the response; the caller's duplicate detection
    keeps exactly-once semantics."""
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE,
                               replicas=3, min_replicas=2)
    world.await_promise(group.invoke("increment", 1))
    old_primary = primary_of(domain, group)
    world.faults.crash_now(old_primary)
    # Drive past the failover; state must not double-apply the replay.
    assert world.await_promise(group.invoke("value")) == 1


def test_warm_failover_after_out_of_order_completions(world):
    """``transfers_done`` completes before the ``transfer`` ordered ahead
    of it, so the later checkpoint carries the lower timestamp and the
    log keeps the older one.  The warm backup's servant took both as
    they came: promotion must not restore the log's checkpoint over it."""
    domain = make_domain(world, num_hosts=4)
    _, _, agent = make_bank(domain, ReplicationStyle.WARM_PASSIVE,
                            min_replicas=2)
    transfer_then_read(world, agent)
    world.faults.crash_now(primary_of(domain, agent))
    assert world.await_promise(agent.invoke("transfers_done"),
                               timeout=600) == 1


@pytest.mark.xfail(strict=True, reason=(
    "a checkpoint's upto_ts claims coverage of operations still "
    "suspended on nested calls: the transfer is truncated from the log "
    "by the read's checkpoint, and its own is refused as older"))
def test_cold_failover_after_out_of_order_completions(world):
    domain = make_domain(world, num_hosts=4)
    _, _, agent = make_bank(domain, ReplicationStyle.COLD_PASSIVE,
                            min_replicas=2, checkpoint_interval=1)
    transfer_then_read(world, agent)
    world.faults.crash_now(primary_of(domain, agent))
    assert world.await_promise(agent.invoke("transfers_done"),
                               timeout=600) == 1


@pytest.mark.xfail(strict=True, reason=(
    "a promoted passive primary does not fence its replay: the replayed "
    "transfer suspends on its nested calls and a read ordered after the "
    "crash runs first (ROADMAP 1 (c))"))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_promoted_primary_reads_what_its_predecessor_answered(seed):
    world = World(seed=seed)
    domain = make_domain(world, num_hosts=4)
    _, _, agent = make_bank(domain, ReplicationStyle.COLD_PASSIVE,
                            min_replicas=2)
    assert world.await_promise(agent.invoke("transfer", "alice", "bob", 10),
                               timeout=60) == 10
    world.faults.crash_now(primary_of(domain, agent))
    assert world.await_promise(agent.invoke("transfers_done"),
                               timeout=600) == 1


def test_warm_passive_replacement_backup_receives_state(world):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE,
                               replicas=3, min_replicas=3)
    for _ in range(3):
        world.await_promise(group.invoke("increment", 2))
    before = set(group.info().placement)
    world.faults.crash_now(group.info().placement[1])
    world.run(until=world.now + 2.0)
    info = group.info()
    assert len(info.placement) == 3
    replacement = (set(info.placement) - before).pop()
    record = domain.rms[replacement].replicas[group.group_id]
    assert record.ready
    assert record.servant.count == 6


def test_mixed_styles_coexist_in_one_domain(world):
    domain = make_domain(world, num_hosts=4)
    active = make_counter_group(domain, name="A", style=ReplicationStyle.ACTIVE)
    warm = make_counter_group(domain, name="W",
                              style=ReplicationStyle.WARM_PASSIVE)
    cold = make_counter_group(domain, name="C",
                              style=ReplicationStyle.COLD_PASSIVE)
    for group in (active, warm, cold):
        assert world.await_promise(group.invoke("increment", 4)) == 4
    world.run(until=world.now + 0.2)
    assert set(replica_counts(domain, active).values()) == {4}
