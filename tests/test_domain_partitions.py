"""Domain behaviour under network partitions.

The paper handles partitionable operation in a companion paper (its
reference [6]); this reproduction implements primary-partition-style
behaviour per side and documents the semantics: each side of a
partition reforms its own ring and keeps serving the groups whose
replicas it holds.  These tests pin down that behaviour for the cases
the gateway story needs.
"""

import pytest

from repro import ReplicationStyle, World

from tests.helpers import external_client, make_counter_group, make_domain


def test_partition_isolating_non_replica_host_is_harmless(world):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=3)
    domain.await_ready(group)
    spare = [h for h in domain.replica_host_names
             if h not in group.info().placement][0]
    others = [h.name for h in domain.hosts if h.name != spare]
    world.network.partition({spare}, set(others))
    world.run(until=world.now + 1.0)
    assert world.await_promise(group.invoke("increment", 1), timeout=600) == 1


def test_majority_side_keeps_serving_after_partition(world):
    domain = make_domain(world, num_hosts=4, gateways=1)
    group = make_counter_group(domain, replicas=3, min_replicas=1)
    domain.await_ready(group)
    world.await_promise(group.invoke("increment", 1))
    # Cut off ONE replica host; gateway and two replicas stay together.
    victim = group.info().placement[2]
    others = {h.name for h in domain.hosts if h.name != victim}
    world.network.partition({victim}, others)
    world.run(until=world.now + 1.0)
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 2


def test_heal_and_rejoin_restores_single_ring(world):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=3, min_replicas=1)
    domain.await_ready(group)
    world.await_promise(group.invoke("increment", 1))
    victim = group.info().placement[2]
    others = {h.name for h in domain.hosts if h.name != victim}
    world.network.partition({victim}, others)
    world.run(until=world.now + 1.0)
    world.network.heal_partitions()
    # Nudge the isolated member to rejoin (its next token loss or an
    # explicit join does this; we force promptness for the test).
    domain.members[victim]._enter_gather("test heal")
    world.scheduler.run_until(
        lambda: all(len(m.members) == 4 for m in domain.members.values()
                    if m.alive), timeout=60.0)
    # The reunited domain serves invocations again.
    assert world.await_promise(group.invoke("increment", 1),
                               timeout=600) == 2


def test_gateway_cut_off_from_domain_fails_client_cleanly(world):
    """A partition between the gateway and the replicas: the client's
    request cannot reach the domain; with a single gateway the client
    observes a typed failure rather than silent corruption.  On the
    gateway's side of the cut the group has no live replica, so the
    gateway answers TRANSIENT at once — the client no longer sits out
    its own 5 s timeout for a NoResponse."""
    from repro.errors import CorbaSystemException
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    domain.await_ready(group)
    gateway_host = domain.gateways[0].host.name
    replica_side = {h.name for h in domain.hosts if h.name != gateway_host}
    _, stub, _ = external_client(world, domain, group)
    world.await_promise(stub.call("increment", 1))
    world.network.partition({gateway_host}, replica_side)
    world.run(until=world.now + 1.0)
    issued = world.now
    promise = stub.call("increment", 1, timeout=5.0)
    with pytest.raises(CorbaSystemException) as exc:
        world.await_promise(promise, timeout=600)
    assert "Transient" in str(exc.value)
    assert world.now - issued < 1.0      # one WAN round trip, no timeout
    world.audit(strict=True)
    # State inside the domain never moved.
    world.network.heal_partitions()
    world.run(until=world.now + 1.0)
    from tests.helpers import replica_counts
    assert set(replica_counts(domain, group).values()) == {1}
