"""Tests for the FaultDetector and the fault tolerance properties
the Replication Manager's ``create_object`` accepts."""

import pytest

from repro import ReplicationStyle, Servant, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.errors import InvocationFailure

from tests.helpers import make_domain, replica_counts


class MonitoredCounter(CounterServant):
    """A counter whose health can be toggled from outside."""

    def __init__(self):
        super().__init__()
        self.healthy = True

    def health_check(self):
        return self.healthy


# ----------------------------------------------------------------------
# FaultDetector
# ----------------------------------------------------------------------

def test_unhealthy_replica_is_removed_and_replaced(world):
    domain = make_domain(world, num_hosts=4)
    group = domain.create_group("Mon", COUNTER_INTERFACE, MonitoredCounter,
                                num_replicas=3, min_replicas=3)
    world.await_promise(group.invoke("increment", 6))
    victim = group.info().placement[1]
    # Poison one replica: processor stays up, object is sick.
    sick_servant = domain.rms[victim].replicas[group.group_id].servant
    sick_servant.healthy = False
    world.run(until=world.now + 3.0)
    info = group.info()
    assert len(info.placement) == 3            # degree restored by the RM
    detector = domain.fault_detectors[victim]
    assert detector.stats["faults_detected"] == 1
    eviction, = world.flight.events("flight.eviction")
    assert eviction["detail"] == {"host": victim, "group": group.group_id}
    # Wherever the replacement landed (possibly the same host), it is a
    # FRESH servant rebuilt from a healthy replica's state.
    for host_name in info.placement:
        record = domain.rms[host_name].replicas[group.group_id]
        assert record.servant is not sick_servant
        assert record.servant.count == 6
        assert record.servant.healthy is True
    # Group still serves, consistently.
    assert world.await_promise(group.invoke("increment", 1)) == 7


def test_health_check_exception_counts_as_fault(world):
    class Exploding(CounterServant):
        def __init__(self):
            super().__init__()
            self.boom = False

        def health_check(self):
            if self.boom:
                raise RuntimeError("internal invariant violated")
            return True

    domain = make_domain(world, num_hosts=4)
    group = domain.create_group("Expl", COUNTER_INTERFACE, Exploding,
                                num_replicas=3, min_replicas=2)
    world.await_promise(group.invoke("increment", 1))
    victim = group.info().placement[0]
    domain.rms[victim].replicas[group.group_id].servant.boom = True
    world.run(until=world.now + 2.0)
    assert victim not in group.info().placement


def test_servants_without_health_check_are_not_probed(world):
    domain = make_domain(world, num_hosts=3)
    group = domain.create_group("Plain", COUNTER_INTERFACE, CounterServant)
    world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 2.0)
    for detector in domain.fault_detectors.values():
        assert detector.stats["faults_detected"] == 0
    assert len(group.info().placement) == 3


def test_evicted_replica_is_replaced_at_its_removal(world):
    """The Resource Manager re-checks the minimum when the eviction's
    REMOVE_REPLICA is delivered, not at a later tick."""
    domain = make_domain(world, num_hosts=4)
    group = domain.create_group("Mon", COUNTER_INTERFACE, MonitoredCounter,
                                num_replicas=3, min_replicas=3)
    world.await_promise(group.invoke("increment", 1))
    victim = group.info().placement[1]
    domain.rms[victim].replicas[group.group_id].servant.healthy = False
    world.scheduler.run_until(
        lambda: victim not in group.info().placement, timeout=5.0)
    evicted_at = world.now
    world.scheduler.run_until(
        lambda: len(group.info().placement) == 3, timeout=5.0)
    assert world.now - evicted_at < 0.02


def test_detector_is_idle_without_health_checks(world):
    """No local servant has a health check: nothing is probed and no
    probe is armed; a group whose servants have one arms it."""
    domain = make_domain(world, num_hosts=3)
    group = domain.create_group("Plain", COUNTER_INTERFACE, CounterServant)
    world.await_promise(group.invoke("increment", 1))
    assert all(d._probe is None for d in domain.fault_detectors.values())
    domain.create_group("Mon", COUNTER_INTERFACE, MonitoredCounter)
    world.run(until=world.now + 1.0)
    assert all(d._probe.active for d in domain.fault_detectors.values())
    assert all(d.stats["probes"] > 0
               for d in domain.fault_detectors.values())


def test_healthy_replicas_stay_put(world):
    domain = make_domain(world, num_hosts=3)
    group = domain.create_group("Mon", COUNTER_INTERFACE, MonitoredCounter)
    world.await_promise(group.invoke("increment", 1))
    placement_before = group.info().placement
    world.run(until=world.now + 3.0)
    assert group.info().placement == placement_before
    probes = sum(d.stats["probes"] for d in domain.fault_detectors.values())
    assert probes > 0


# ----------------------------------------------------------------------
# Fault tolerance properties, as create_object's arguments
# ----------------------------------------------------------------------

def create_object(domain, name, style, num_replicas, min_replicas,
                  checkpoint_interval, placement=()):
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("counter_factory", CounterServant)
    return domain.world.await_promise(domain.invoke(
        "EternalReplicationManager", "create_object",
        [name, "Counter", "counter_factory", style.value, num_replicas,
         min_replicas, checkpoint_interval, list(placement)]))


def test_properties_validation(world):
    domain = make_domain(world, num_hosts=4)
    for style, num, minimum, checkpoint in (
            (ReplicationStyle.ACTIVE, 0, 0, 10),              # no replicas
            (ReplicationStyle.ACTIVE, 2, 3, 10),              # min > initial
            (ReplicationStyle.ACTIVE, 3, 2, 0),               # checkpoint < 1
            (ReplicationStyle.ACTIVE_WITH_VOTING, 2, 2, 10),  # no majority
    ):
        with pytest.raises(InvocationFailure) as err:
            create_object(domain, "Bad", style, num, minimum, checkpoint)
        assert err.value.repo_id == "IDL:repro/BadProperty:1.0"
    assert domain.coordinator_rm().registry.by_name("Bad") is None


def test_create_group_from_properties(world):
    domain = make_domain(world, num_hosts=4)
    create_object(domain, "Props", ReplicationStyle.COLD_PASSIVE,
                  num_replicas=2, min_replicas=1, checkpoint_interval=3)
    group = domain.resolve("Props")
    domain.await_ready(group)
    info = group.info()
    assert info.style is ReplicationStyle.COLD_PASSIVE
    assert len(info.placement) == 2
    assert info.min_replicas == 1
    assert info.checkpoint_interval == 3
    assert world.await_promise(group.invoke("increment", 2)) == 2
