"""One management path: configuration is an invocation of the replicated
Replication Manager.

``create_group`` and ``switch_style`` invoke the manager group
(``create_object``, ``switch_style``) through the driver's
``domain.invoke``, which issues a call again from the next live
processor when the one that issued it dies before the reply.  So the
crash of the processor that issued the call — the coordinator — loses
neither a new group nor a style switch, and the first call to a new
group is answered.  The manager allocates ids above every id ever
announced and places replicas on live hosts only.

A rolling upgrade is driven the same way: each step is multicast from
whichever processor is coordinator then, so the coordinator's crash at
any instant of the roll does not stall it, and neither does its
restart.

The four crash sweeps run every ``STRIDE``-th instant in tier-1;
``pytest --full-sweep tests/test_management_path.py`` runs all of them.
"""

import functools

import pytest

from repro import Orb, ReplicationStyle, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.errors import ConfigurationError, ObjectNotExist
from repro.eternal.messages import MsgKind

from tests.helpers import make_domain, ready_counter_group, replica_counts

#: Crash instants after the call: 0.0 to 5.9 ms in 0.1 ms steps.
INSTANTS = range(60)
STRIDE = 6


def sweep(instants, name=lambda i: f"{i / 10:.1f}ms"):
    """``instants`` as parameters, all but every ``STRIDE``-th marked
    to run only under ``--full-sweep``."""
    return [pytest.param(i, id=name(i),
                         marks=() if i % STRIDE == 0
                         else pytest.mark.full_sweep)
            for i in instants]


@pytest.mark.parametrize("tenths_ms", sweep(INSTANTS))
def test_create_group_survives_a_coordinator_crash(tenths_ms):
    world = World(seed=5)
    domain = make_domain(world, num_hosts=3, gateways=2)
    coordinator = domain.coordinator_rm().host.name
    world.faults.crash_host(coordinator, at=world.now + tenths_ms / 10000)
    group = domain.create_group("Counter", COUNTER_INTERFACE, CounterServant,
                                num_replicas=3)
    domain.await_ready(group, timeout=30)
    assert world.await_promise(group.invoke("increment", 1), timeout=30) == 1
    assert not world.network.host(coordinator).alive


@pytest.mark.parametrize("tenths_ms", sweep(INSTANTS))
def test_switch_style_survives_a_coordinator_crash(tenths_ms):
    world = World(seed=5)
    domain = make_domain(world, num_hosts=4, gateways=2)
    group = ready_counter_group(domain, replicas=3)
    coordinator = domain.coordinator_rm().host.name
    world.faults.crash_host(coordinator, at=world.now + tenths_ms / 10000)
    world.await_promise(
        domain.switch_style(group, ReplicationStyle.WARM_PASSIVE), timeout=30)
    world.run(until=world.now + 1.0)
    live = [rm for rm in domain.rms.values() if rm.alive]
    assert coordinator not in {rm.host.name for rm in live}
    assert {rm.registry.get(group.group_id).style for rm in live} == {
        ReplicationStyle.WARM_PASSIVE}


def test_two_unawaited_switches_both_take_effect(world):
    """The second switch is issued before the first one's STYLE_SWITCH
    is delivered: the manager gives it the next epoch, so it is applied
    after the first instead of being dropped as a copy of it."""
    domain = make_domain(world, num_hosts=4)
    group = ready_counter_group(domain, replicas=3)
    first = domain.switch_style(group, ReplicationStyle.WARM_PASSIVE)
    second = domain.switch_style(group, ReplicationStyle.LEADER_FOLLOWER)
    world.run_until_done([first, second], timeout=30)
    assert first.result() is None and second.result() is None
    world.run(until=world.now + 1.0)
    live = [rm for rm in domain.rms.values() if rm.alive]
    assert {(rm.registry.get(group.group_id).style,
             rm.registry.get(group.group_id).style_epoch)
            for rm in live} == {(ReplicationStyle.LEADER_FOLLOWER, 2)}
    # Each switch applied once at every processor, copies and all.
    assert {rm.stats["style_switches"] for rm in live} == {2}
    assert world.await_promise(group.invoke("increment", 1)) == 1


class CounterV2(CounterServant):
    """The upgraded code: same behaviour, a class of its own."""


def upgrade_scene():
    """4 hosts, an ACTIVE counter at 1 on 3 of them, and a v2 factory."""
    world = World(seed=5)
    domain = make_domain(world, num_hosts=4)
    group = ready_counter_group(domain, replicas=3)
    world.await_promise(group.invoke("increment", 1))
    domain.register_factory("factory.v2", CounterV2)
    return world, domain, group


@functools.lru_cache(maxsize=None)
def roll_instants():
    """Every instant at which an event of the undisturbed roll runs."""
    world, domain, group = upgrade_scene()
    group.invoke("increment", 1)
    upgrade = domain.evolution.upgrade_group("Counter", "factory.v2")
    instants = []
    while not upgrade.done and len(instants) < 10_000:
        world.scheduler.step()
        instants.append(world.now)
    return tuple(sorted(set(instants)))


#: Distinct event instants of that roll (``roll_instants``).
ROLL_INSTANTS = 37


@pytest.mark.parametrize("index", sweep(range(ROLL_INSTANTS),
                                        name=lambda i: f"event{i}"))
def test_upgrade_survives_a_coordinator_crash(index):
    instants = roll_instants()
    assert len(instants) == ROLL_INSTANTS, "the roll's events moved"
    world, domain, group = upgrade_scene()
    coordinator = domain.coordinator_rm().host.name
    calls = [group.invoke("increment", 1)]
    upgrade = domain.evolution.upgrade_group("Counter", "factory.v2")
    world.faults.crash_host(coordinator, at=instants[index])
    assert world.await_promise(upgrade, timeout=30) == 2
    calls.append(group.invoke("increment", 1))
    world.run_until_done(calls, timeout=30)
    domain.await_ready(group, timeout=30)
    world.run(until=world.now + 1.0)
    assert not world.network.host(coordinator).alive
    records = [rm.replicas[group.group_id] for rm in domain.rms.values()
               if rm.alive and group.group_id in rm.replicas]
    assert len(records) == len(group.info().placement) == 3
    assert all(type(record.servant) is CounterV2 and record.version == 2
               for record in records)
    assert set(replica_counts(domain, group).values()) == {3}
    world.audit(strict=True)


@pytest.mark.parametrize("index", sweep(range(ROLL_INSTANTS),
                                        name=lambda i: f"event{i}"))
def test_upgrade_survives_a_coordinator_restart(index):
    """The coordinator crashes and is restarted as soon as the ring has
    excluded it: until its directory arrives the restarted processor is
    not the coordinator, so the roll neither takes its empty view of who
    is live nor resolves before every replica runs the new version."""
    instants = roll_instants()
    world, domain, group = upgrade_scene()
    coordinator = domain.coordinator_rm().host.name
    calls = [group.invoke("increment", 1)]
    upgrade = domain.evolution.upgrade_group("Counter", "factory.v2")
    at_resolution = []
    upgrade.on_done(lambda _: at_resolution.extend(
        (type(rm.replicas[group.group_id].servant), rm.replicas[
            group.group_id].version)
        for rm in domain.rms.values()
        if rm.alive and group.group_id in rm.replicas))
    world.faults.crash_host(coordinator, at=instants[index])
    world.scheduler.run_until(
        lambda: not world.network.host(coordinator).alive
        and all(coordinator not in rm.live_hosts
                for rm in domain.rms.values() if rm.alive), timeout=5)
    world.faults.recover_now(coordinator)
    domain.restart_host(coordinator)
    assert world.await_promise(upgrade, timeout=30) == 2
    assert at_resolution and set(at_resolution) == {(CounterV2, 2)}
    calls.append(group.invoke("increment", 1))
    world.run_until_done(calls, timeout=30)
    domain.await_stable()
    world.run(until=world.now + 1.0)
    records = [rm.replicas[group.group_id] for rm in domain.rms.values()
               if rm.alive and group.group_id in rm.replicas]
    # A step is one message, so no membership change (the restarted
    # processor's join) falls between its removal and its re-creation,
    # and the Resource Manager never places a replica of its own.
    assert len(records) == len(group.info().placement) == 3
    assert all(type(record.servant) is CounterV2 and record.version == 2
               for record in records)
    assert set(replica_counts(domain, group).values()) == {3}
    world.audit(strict=True)


def test_a_second_upgrade_of_a_rolling_group_is_refused():
    """While a group's roll is open a second upgrade is rejected at once;
    the first one still completes."""
    world, domain, group = upgrade_scene()
    domain.register_factory("factory.v3", CounterV2)
    first = domain.evolution.upgrade_group("Counter", "factory.v2")
    second = domain.evolution.upgrade_group("Counter", "factory.v3")
    assert second.failed and isinstance(second.error, ConfigurationError)
    assert world.await_promise(first, timeout=30) == 2
    third = domain.evolution.upgrade_group("Counter", "factory.v3")
    assert world.await_promise(third, timeout=30) == 3
    world.run(until=world.now + 1.0)
    world.audit(strict=True)


@pytest.mark.parametrize("moment", ["issued", "executed"])
def test_a_call_outlives_the_processor_that_issued_it(world, moment):
    """The issuing processor dies right after ``invoke`` (the request
    may die in its send queue) or once a replica has executed the call
    (the reply would have arrived only there): the call is issued again
    from the next live processor, resolves once and executes once."""
    domain = make_domain(world, num_hosts=4)
    group = ready_counter_group(domain, replicas=3, min_replicas=2)
    issuer = domain.coordinator_rm().host.name
    executor = next(h for h in group.info().placement if h != issuer)

    def crash_on_execution(seq, sender, payload):
        if (payload.kind is MsgKind.INVOCATION
                and payload.target_group == group.group_id
                and world.network.host(issuer).alive):
            world.faults.crash_now(issuer)

    if moment == "executed":
        domain.members[executor].on_deliver(crash_on_execution)
    answers = []
    call = group.invoke("increment", 1)
    call.on_done(lambda p: answers.append(p.value))
    if moment == "issued":
        world.faults.crash_now(issuer)
    assert world.await_promise(call, timeout=30) == 1
    world.run(until=world.now + 1.0)
    assert not world.network.host(issuer).alive
    assert answers == [1]
    assert set(replica_counts(domain, group).values()) == {1}
    assert domain._calls == {}


def test_a_removed_group_id_is_never_reused(world):
    """A's reference must not reach B: B gets a fresh id, and A's old
    IOR is OBJECT_NOT_EXIST at the gateway."""
    domain = make_domain(world, gateways=1)
    a = ready_counter_group(domain, name="A")
    old_ior = domain.ior_for(a).to_string()
    world.await_promise(domain.invoke(
        "EternalReplicationManager", "remove_object", ["A"]))
    b = ready_counter_group(domain, name="B")
    assert b.group_id > a.group_id
    assert domain.ior_for(b).to_string() != old_ior
    orb = Orb(world, world.add_host("holder-of-a"), request_timeout=None)
    stub = orb.string_to_object(old_ior, COUNTER_INTERFACE)
    with pytest.raises(ObjectNotExist):
        world.await_promise(stub.call("increment", 1), timeout=30)
    assert world.await_promise(b.invoke("increment", 1)) == 1


def test_a_rejoined_processor_learns_the_id_high_water_mark(world):
    """The registry snapshot carries the mark, so a processor that
    joins after a group was removed allocates the ids the others do."""
    domain = make_domain(world, num_hosts=4)
    ready_counter_group(domain, name="A", replicas=2)
    world.await_promise(domain.invoke(
        "EternalReplicationManager", "remove_object", ["A"]))
    world.faults.crash_now("dom-h3")
    world.run(until=world.now + 0.5)
    world.faults.recover_now("dom-h3")
    rejoined = domain.restart_host("dom-h3")
    domain.await_stable()
    assert rejoined.registry.get(10) is None
    assert {rm.registry.high_water for rm in domain.rms.values()
            if rm.alive} == {10}
    assert ready_counter_group(domain, name="B", replicas=2).group_id == 11


def test_no_replica_is_placed_on_a_dead_host(world):
    domain = make_domain(world, num_hosts=4)
    world.faults.crash_now("dom-h2")
    world.scheduler.run_until(lambda: all(
        "dom-h2" not in rm.live_hosts
        for rm in domain.rms.values() if rm.alive), timeout=5)
    groups = [domain.create_group(f"G{i}", COUNTER_INTERFACE, CounterServant,
                                  num_replicas=2) for i in range(4)]
    for group in groups:
        domain.await_ready(group, timeout=30)
        assert "dom-h2" not in group.info().placement
        assert len(group.info().placement) == 2
