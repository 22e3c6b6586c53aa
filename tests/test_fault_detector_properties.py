"""Tests for the FaultDetector and FaultToleranceProperties."""

import json

import pytest

from repro import ReplicationStyle, Servant, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.errors import ConfigurationError
from repro.eternal import FaultToleranceProperties
from repro.eternal.properties import CONSISTENCY_STYLE, MEMBERSHIP_STYLE

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
# FaultToleranceProperties
# ----------------------------------------------------------------------

def test_properties_roundtrip():
    props = FaultToleranceProperties(
        replication_style=ReplicationStyle.WARM_PASSIVE,
        initial_number_replicas=4, minimum_number_replicas=2,
        checkpoint_interval=7)
    wire = props.to_properties()
    assert wire["org.omg.ft.ReplicationStyle"] == "warm_passive"
    assert wire["org.omg.ft.ConsistencyStyle"] == CONSISTENCY_STYLE
    assert wire["org.omg.ft.MembershipStyle"] == MEMBERSHIP_STYLE
    assert FaultToleranceProperties.from_properties(wire) == props


def test_properties_validation():
    with pytest.raises(ConfigurationError):
        FaultToleranceProperties(initial_number_replicas=0)
    with pytest.raises(ConfigurationError):
        FaultToleranceProperties(initial_number_replicas=2,
                                 minimum_number_replicas=3)
    with pytest.raises(ConfigurationError):
        FaultToleranceProperties(checkpoint_interval=0)
    with pytest.raises(ConfigurationError):
        FaultToleranceProperties(
            replication_style=ReplicationStyle.ACTIVE_WITH_VOTING,
            initial_number_replicas=2)


def test_properties_reject_unknown_keys():
    with pytest.raises(ConfigurationError):
        FaultToleranceProperties.from_properties(
            {"org.omg.ft.Typo": "x"})


def test_properties_reject_foreign_styles():
    with pytest.raises(ConfigurationError):
        FaultToleranceProperties.from_properties(
            {"org.omg.ft.ConsistencyStyle": "CONS_APP_CTRL"})


def test_create_group_from_properties(world):
    domain = make_domain(world, num_hosts=4)
    props = FaultToleranceProperties(
        replication_style=ReplicationStyle.COLD_PASSIVE,
        initial_number_replicas=2, minimum_number_replicas=1,
        checkpoint_interval=3)
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("counter_factory", CounterServant)
    world.await_promise(domain.invoke(
        "EternalReplicationManager", "create_object_with_properties",
        ["Props", "Counter", "counter_factory",
         json.dumps(props.to_properties())]))
    group = domain.resolve("Props")
    domain.await_ready(group)
    info = group.info()
    assert info.style is ReplicationStyle.COLD_PASSIVE
    assert len(info.placement) == 2
    assert info.min_replicas == 1
    assert info.checkpoint_interval == 3
    assert world.await_promise(group.invoke("increment", 2)) == 2
