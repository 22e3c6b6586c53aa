"""Every live style switch hands a group over without losing, doubling
or diverging an operation: each ordered pair of the five switchable
styles, with the new primary's host crashed after the switch, and an
operation suspended on its nested calls across each switch between the
two passive styles."""

import itertools

import pytest

from repro import ReplicationStyle

from tests.helpers import (
    counters_from_here, make_bank, make_counter_group, make_domain,
    replica_counts)

SWITCHABLE = [style for style in ReplicationStyle
              if style is not ReplicationStyle.STATELESS]
PAIRS = list(itertools.permutations(SWITCHABLE, 2))


@pytest.mark.parametrize("old,new", PAIRS,
                         ids=[f"{a.value}-{b.value}" for a, b in PAIRS])
def test_switch_then_new_primary_crash_is_exactly_once(world, old, new):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, style=old, replicas=3,
                               min_replicas=2, checkpoint_interval=4)
    domain.await_ready(group)
    values = [world.await_promise(group.invoke("increment", 1))
              for _ in range(6)]
    world.await_promise(domain.switch_style(group, new))
    values += [world.await_promise(group.invoke("increment", 1))
               for _ in range(6)]
    primary = group.info().primary(domain.coordinator_rm().live_hosts)
    world.faults.crash_now(primary)
    values += [world.await_promise(group.invoke("increment", 1), timeout=600)
               for _ in range(6)]
    assert values == list(range(1, 19))
    world.run(until=world.now + 0.5)
    counts = replica_counts(domain, group)
    if new is ReplicationStyle.COLD_PASSIVE:
        # A cold backup holds a log and a checkpoint, not the state.
        primary = group.info().primary(domain.coordinator_rm().live_hosts)
        counts = {primary: counts[primary]}
    assert set(counts.values()) == {18}, counts
    world.audit(strict=True)


def test_backups_finishing_a_call_begun_before_a_switch_owe_no_checkpoint(
        world):
    """A ``transfer`` suspended on its nested calls when its group
    switches from ACTIVE to COLD_PASSIVE completes at every replica; only
    the primary answers it, and its checkpoint rides that reply."""
    domain = make_domain(world, num_hosts=4)
    _, _, agent = make_bank(domain, ReplicationStyle.ACTIVE,
                            checkpoint_interval=1)
    grown = counters_from_here(world)
    transfer = agent.invoke("transfer", "alice", "bob", 10)
    world.run(until=world.now + 0.0015)
    assert grown("eternal.invocations.executed") == 3   # all suspended
    domain.switch_style(agent, ReplicationStyle.COLD_PASSIVE)
    assert world.await_promise(transfer, timeout=5) == 10
    world.run(until=world.now + 0.5)
    assert grown("eternal.checkpoint.multicasts") == 1
    assert grown("eternal.state.carried") == 1
    assert grown("eternal.state.updates") == 0


PASSIVE_PAIRS = [(ReplicationStyle.WARM_PASSIVE, ReplicationStyle.COLD_PASSIVE),
                 (ReplicationStyle.COLD_PASSIVE, ReplicationStyle.WARM_PASSIVE)]


@pytest.mark.parametrize("old,new", PASSIVE_PAIRS,
                         ids=[f"{a.value}-{b.value}" for a, b in PASSIVE_PAIRS])
def test_passive_to_passive_switch_keeps_a_suspended_transfer(world, old, new):
    """A ``transfer`` suspended on its nested calls across a switch
    between the two passive styles survives the primary's crash: the
    log, its checkpoint and its suffix carry over the switch, so the new
    primary's promotion still covers the transfer."""
    domain = make_domain(world, num_hosts=4)
    _, _, agent = make_bank(domain, old, min_replicas=2)
    grown = counters_from_here(world)
    transfer = agent.invoke("transfer", "alice", "bob", 10)
    world.run(until=world.now + 0.0015)
    assert grown("eternal.invocations.executed") == 1   # the primary's
    domain.switch_style(agent, new)
    assert world.await_promise(transfer, timeout=5) == 10
    world.run(until=world.now + 0.2)
    world.faults.crash_now(
        agent.info().primary(domain.coordinator_rm().live_hosts))
    # Past the promotion and its replay: a read ordered while the replayed
    # transfer still waits on its nested calls would overtake it.
    world.run(until=world.now + 1.0)
    assert world.await_promise(agent.invoke("transfers_done"),
                               timeout=600) == 1
    world.run(until=world.now + 0.5)
    done = replica_counts(domain, agent, "completed")
    if new is ReplicationStyle.COLD_PASSIVE:
        primary = agent.info().primary(domain.coordinator_rm().live_hosts)
        done = {primary: done[primary]}
    assert set(done.values()) == {1}, done
    world.audit(strict=True)
