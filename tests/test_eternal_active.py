"""Integration tests: active replication inside a fault tolerance domain."""

import pytest

from repro import ReplicationStyle, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.errors import InvocationFailure

from tests.helpers import make_counter_group, make_domain, replica_counts


def test_every_replica_executes_every_invocation(world):
    domain = make_domain(world)
    group = make_counter_group(domain, replicas=3)
    world.await_promise(group.invoke("increment", 5))
    world.await_promise(group.invoke("increment", 3))
    counts = replica_counts(domain, group)
    assert len(counts) == 3
    assert set(counts.values()) == {8}


def test_exactly_one_response_reaches_the_caller(world):
    domain = make_domain(world)
    group = make_counter_group(domain, replicas=3)
    assert world.await_promise(group.invoke("increment", 5)) == 5
    world.run(until=world.now + 0.1)  # let any trailing duplicates arrive
    rm = domain.coordinator_rm()
    assert rm.stats["responses_delivered"] == 1
    # The two extra replica responses never reached the caller twice:
    # each was withdrawn at its sender (a sibling's copy was delivered
    # first) or, had it crossed on the ring, suppressed on receipt.
    withdrawn = world.metrics.value("rm.copies.withdrawn")
    assert withdrawn + rm.stats["responses_suppressed"] == 3 - 1
    assert withdrawn == 2  # uniform LAN: the first speaker's copy wins


def test_user_exception_propagates_from_replicas(world):
    domain = make_domain(world)
    group = make_counter_group(domain, replicas=3)
    world.await_promise(group.invoke("decrement", 5))
    with pytest.raises(InvocationFailure):
        world.await_promise(group.invoke("fail_if_negative"))
    # Failing operations keep replicas consistent.
    assert set(replica_counts(domain, group).values()) == {-5}


def test_direct_single_replica_access_diverges_state(world):
    """The paper's core argument (section 3): contacting ONE replica of
    an actively replicated object directly violates replica consistency.
    We bypass the infrastructure to demonstrate the divergence the
    gateway exists to prevent."""
    domain = make_domain(world)
    group = make_counter_group(domain, replicas=3)
    world.await_promise(group.invoke("increment", 1))
    # Bypass: mutate exactly one replica, as a direct TCP invocation would.
    info = group.info()
    lone = domain.rms[info.placement[0]].replicas[group.group_id]
    lone.servant.increment(10)
    counts = replica_counts(domain, group)
    assert len(set(counts.values())) > 1  # inconsistent replication


def test_replica_crash_does_not_lose_state(world):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=3, min_replicas=2)
    world.await_promise(group.invoke("increment", 9))
    victim = group.info().placement[0]
    world.faults.crash_now(victim)
    assert world.await_promise(group.invoke("increment", 1)) == 10
    counts = replica_counts(domain, group)
    assert victim not in counts
    assert set(counts.values()) == {10}


def test_resource_manager_restores_replication_degree(world):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=3, min_replicas=3)
    world.await_promise(group.invoke("increment", 42))
    before = set(group.info().placement)
    victim = group.info().placement[1]
    world.faults.crash_now(victim)
    world.run(until=world.now + 2.0)
    after = group.info()
    assert len(after.placement) == 3
    replacement = (set(after.placement) - before).pop()
    record = domain.rms[replacement].replicas[group.group_id]
    assert record.ready
    assert record.servant.count == 42  # state transferred, not re-initialised


def test_state_transfer_preserves_in_flight_consistency(world):
    """Invocations racing a state transfer are buffered at the joiner
    and applied after the snapshot, ending fully consistent."""
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=3, min_replicas=3)
    world.await_promise(group.invoke("increment", 1))
    victim = group.info().placement[0]
    world.faults.crash_now(victim)
    # Fire more traffic while the replacement is being brought up.
    promises = [group.invoke("increment", 1) for _ in range(10)]
    world.run_until_done(promises)
    world.run(until=world.now + 2.0)
    counts = replica_counts(domain, group)
    assert len(counts) == 3
    assert set(counts.values()) == {11}


def test_two_groups_are_isolated(world):
    domain = make_domain(world, num_hosts=4)
    a = make_counter_group(domain, name="A", replicas=3)
    b = make_counter_group(domain, name="B", replicas=3)
    world.await_promise(a.invoke("increment", 5))
    world.await_promise(b.invoke("increment", 7))
    assert set(replica_counts(domain, a).values()) == {5}
    assert set(replica_counts(domain, b).values()) == {7}


def test_stateless_style_executes_everywhere(world):
    domain = make_domain(world)
    group = make_counter_group(domain, style=ReplicationStyle.STATELESS,
                               replicas=3)
    assert world.await_promise(group.invoke("increment", 2)) == 2
    assert set(replica_counts(domain, group).values()) == {2}


def test_sequential_invocations_from_driver_are_ordered(world):
    domain = make_domain(world)
    group = make_counter_group(domain)
    results = []
    for i in range(10):
        results.append(world.await_promise(group.invoke("increment", 1)))
    assert results == list(range(1, 11))


def test_concurrent_invocations_all_complete(world):
    domain = make_domain(world)
    group = make_counter_group(domain)
    promises = [group.invoke("increment", 1) for _ in range(20)]
    world.run_until_done(promises)
    assert sorted(p.result() for p in promises) == list(range(1, 21))
    assert set(replica_counts(domain, group).values()) == {20}


def test_voting_masks_single_value_fault(world):
    domain = make_domain(world)
    group = make_counter_group(domain, style=ReplicationStyle.ACTIVE_WITH_VOTING,
                               replicas=3)
    world.await_promise(group.invoke("increment", 5))
    # Corrupt one replica (a value fault active+voting should mask).
    faulty_host = group.info().placement[0]
    domain.rms[faulty_host].replicas[group.group_id].servant.count = 999
    assert world.await_promise(group.invoke("value")) == 5


def test_voting_result_reflects_majority_even_after_fault(world):
    domain = make_domain(world)
    group = make_counter_group(domain, style=ReplicationStyle.ACTIVE_WITH_VOTING,
                               replicas=3)
    domain.await_ready(group)
    faulty_host = group.info().placement[2]
    domain.rms[faulty_host].replicas[group.group_id].servant.count = -100
    assert world.await_promise(group.invoke("increment", 1)) == 1
