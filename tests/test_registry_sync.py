"""Tests: registry synchronization for processors that join late."""

from repro import ReplicationStyle, World
from repro.eternal import REPLICATION_MANAGER_GROUP

from tests.helpers import external_client, make_counter_group, make_domain


def test_gateway_added_after_groups_learns_the_directory(world):
    domain = make_domain(world)
    group = make_counter_group(domain)
    world.await_promise(group.invoke("increment", 3))
    # Now attach a gateway: it must discover the existing groups.
    domain.add_gateway(port=2809)
    domain.await_stable()
    gateway_rm = domain.rms[domain.gateways[0].host.name]
    assert gateway_rm.synced
    assert gateway_rm.registry.get(group.group_id) is not None
    # And it can serve an external client for the pre-existing group.
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("value")) == 3


def test_second_gateway_also_syncs(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    world.await_promise(group.invoke("increment", 1))
    domain.add_gateway(port=2809)
    domain.await_stable()
    for gateway in domain.gateways:
        rm = domain.rms[gateway.host.name]
        assert rm.synced
        assert group.group_id in rm.registry


def test_joiner_buffers_traffic_delivered_before_snapshot(world):
    """Messages ordered between the joiner's membership install and the
    snapshot delivery are buffered and replayed, not lost."""
    domain = make_domain(world)
    group = make_counter_group(domain)
    world.await_promise(group.invoke("increment", 1))
    domain.add_gateway(port=2809)
    # Keep invoking while the gateway is still syncing.
    promises = [group.invoke("increment", 1) for _ in range(5)]
    world.run_until_done(promises)
    domain.await_stable()
    gateway_rm = domain.rms[domain.gateways[0].host.name]
    assert gateway_rm.synced
    assert not gateway_rm._presync_buffer


def test_sync_includes_manager_group(world):
    domain = make_domain(world)
    domain.add_gateway(port=2809)
    domain.await_stable()
    gateway_rm = domain.rms[domain.gateways[0].host.name]
    assert REPLICATION_MANAGER_GROUP in gateway_rm.registry


def test_unsynced_joiner_does_not_act_on_invocations(world):
    domain = make_domain(world)
    group = make_counter_group(domain)
    world.await_promise(group.invoke("increment", 1))
    gateway = domain.add_gateway(port=2809)
    rm = domain.rms[gateway.host.name]
    # Before sync, deliveries are buffered; the joiner hosts nothing and
    # executes nothing.
    assert rm.stats["invocations_executed"] == 0
    domain.await_stable()
    assert rm.stats["invocations_executed"] == 0  # still hosts no replicas


def test_joiner_asks_again_only_at_a_membership_change(world):
    """A restarted processor cut off from every incumbent asks for the
    directory once; its request comes back unanswered, and it asks
    again at the next membership change, not on a timer."""
    from repro.eternal import DomainMessage, MsgKind
    domain = make_domain(world, num_hosts=3)
    world.faults.crash_now("dom-h2")
    world.run(until=world.now + 1.0)
    world.faults.recover_now("dom-h2")
    world.network.partition({"dom-h2"}, {"dom-h0", "dom-h1"})
    rm = domain.restart_host("dom-h2")
    asked = []
    multicast = rm.totem.multicast

    def spy(payload, size=64):
        if (isinstance(payload, DomainMessage)
                and payload.kind is MsgKind.REGISTRY_SYNC_REQUEST):
            asked.append(world.now)
        return multicast(payload, size)

    rm.totem.multicast = spy        # before the start-up request leaves
    world.run(until=world.now + 1.0)
    assert len(asked) == 1 and not rm.synced
    world.network.heal_partitions()
    domain.members["dom-h2"]._enter_gather("test heal")
    domain.await_stable()
    assert rm.synced and len(asked) == 2
    assert not rm._presync_buffer
