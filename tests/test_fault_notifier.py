"""Tests for the Fault Notifier observer."""

import pytest

from repro import World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.eternal import FaultKind, FaultNotifier

from tests.helpers import make_counter_group, make_domain


def test_host_crash_and_recovery_reported(world):
    """No report from the simulator's own record of a crash: the host
    leaves at the membership change that excludes it, and joins at the
    one that takes its restarted software back in."""
    domain = make_domain(world)
    notifier = FaultNotifier(domain)
    world.faults.crash_now("dom-h2")
    assert notifier.reports == []
    world.run(until=world.now + 1.0)
    world.faults.recover_now("dom-h2")
    domain.restart_host("dom-h2")
    world.run(until=world.now + 1.0)
    changes = notifier.history(FaultKind.MEMBERSHIP_CHANGED)
    assert [(r.detail["left"], r.detail["joined"]) for r in changes] == [
        (["dom-h2"], []), ([], ["dom-h2"])]


def test_membership_change_reports_who_left(world):
    domain = make_domain(world)
    notifier = FaultNotifier(domain)
    world.faults.crash_now("dom-h1")
    world.run(until=world.now + 1.0)
    changes = notifier.history(FaultKind.MEMBERSHIP_CHANGED)
    assert changes
    assert "dom-h1" in changes[-1].detail["left"]


def test_group_degraded_and_restored(world):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=3, min_replicas=3)
    domain.await_ready(group)
    notifier = FaultNotifier(domain)
    world.faults.crash_now(group.info().placement[0])
    world.run(until=world.now + 3.0)   # degrade, then RM restores
    degraded = notifier.history(FaultKind.GROUP_DEGRADED)
    restored = notifier.history(FaultKind.GROUP_RESTORED)
    assert [r.subject for r in degraded] == ["Counter"]
    assert [r.subject for r in restored] == ["Counter"]
    assert degraded[0].time <= restored[0].time


def test_replica_removed_by_fault_detector_reported(world):
    class Monitored(CounterServant):
        def __init__(self):
            super().__init__()
            self.healthy = True

        def health_check(self):
            return self.healthy

    domain = make_domain(world, num_hosts=4)
    group = domain.create_group("Mon", COUNTER_INTERFACE, Monitored,
                                num_replicas=3, min_replicas=2)
    domain.await_ready(group)
    notifier = FaultNotifier(domain)
    victim = group.info().placement[1]
    domain.rms[victim].replicas[group.group_id].servant.healthy = False
    world.run(until=world.now + 3.0)
    removed = notifier.history(FaultKind.REPLICA_REMOVED)
    assert any(r.subject == "Mon" and r.detail["host"] == victim
               for r in removed)


def test_push_consumers_receive_reports(world):
    domain = make_domain(world)
    notifier = FaultNotifier(domain)
    received = []
    notifier.subscribe(received.append)
    world.faults.crash_now("dom-h0")
    world.run(until=world.now + 1.0)
    assert any(r.kind is FaultKind.MEMBERSHIP_CHANGED
               and r.detail["left"] == ["dom-h0"] for r in received)


def test_notifier_ignores_foreign_domains(world):
    domain_a = make_domain(world, name="alpha")
    domain_b = make_domain(world, name="beta")
    notifier = FaultNotifier(domain_a)
    world.faults.crash_now("beta-h0")
    world.run(until=world.now + 1.0)
    assert notifier.reports == []
