"""Determinism of interleaved executions across active replicas.

Eternal's consistency argument requires that when several invocations
(and their nested calls) are in flight on the same group concurrently,
every replica observes the *same* interleaving — because suspensions
and resumptions are driven purely by the total order.  These tests
stress that property with servants that record their interleaving.
"""

import pytest

from repro import NestedCall, Servant, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.iiop import TC_LONG, TC_STRING
from repro.orb import Interface, Operation, Param

from tests.helpers import make_domain

RECORDER = Interface("Recorder", [
    Operation("run", [Param("tag", TC_STRING)], TC_STRING),
])

HELPER = Interface("Helper", [
    Operation("bounce", [Param("x", TC_LONG)], TC_LONG),
])


class HelperServant(Servant):
    interface = HELPER

    def bounce(self, x):
        return x + 1


class RecorderServant(Servant):
    """Records begin/resume/end markers for every operation."""

    interface = RECORDER

    def __init__(self):
        self.trace = []

    def run(self, tag):
        self.trace.append(f"{tag}:begin")
        value = yield NestedCall("Helper", "bounce", [1])
        self.trace.append(f"{tag}:mid{value}")
        value = yield NestedCall("Helper", "bounce", [value])
        self.trace.append(f"{tag}:end{value}")
        return tag


def traces(domain, group):
    result = {}
    for host_name, rm in domain.rms.items():
        record = rm.replicas.get(group.group_id)
        if record is not None and rm.alive:
            result[host_name] = list(record.servant.trace)
    return result


def test_concurrent_executions_interleave_identically(world):
    domain = make_domain(world, num_hosts=4)
    domain.create_group("Helper", HELPER, HelperServant)
    group = domain.create_group("Recorder", RECORDER, RecorderServant)
    promises = [group.invoke("run", f"op{i}") for i in range(6)]
    world.run_until_done(promises, timeout=600)
    world.run(until=world.now + 0.5)
    per_replica = traces(domain, group)
    assert len(per_replica) == 3
    reference = next(iter(per_replica.values()))
    # Same events, same order, at every replica.
    for trace in per_replica.values():
        assert trace == reference
    # All six operations ran to completion.
    assert sum(1 for e in reference if e.endswith(":begin")) == 6
    assert sum(1 for e in reference if ":end" in e) == 6


def test_interleaving_is_stable_across_reruns(world):
    def run(seed):
        w = World(seed=seed)
        domain = make_domain(w, num_hosts=4)
        domain.create_group("Helper", HELPER, HelperServant)
        group = domain.create_group("Recorder", RECORDER, RecorderServant)
        promises = [group.invoke("run", f"op{i}") for i in range(4)]
        w.run_until_done(promises, timeout=600)
        w.run(until=w.now + 0.5)
        return next(iter(traces(domain, group).values()))

    assert run(5) == run(5)


def test_suspended_execution_does_not_block_other_invocations(world):
    """While one invocation awaits its nested response, later-ordered
    invocations may execute; determinism, not serialisation, is what
    the infrastructure guarantees (DESIGN.md)."""
    domain = make_domain(world, num_hosts=4)
    domain.create_group("Helper", HELPER, HelperServant)
    group = domain.create_group("Recorder", RECORDER, RecorderServant)
    counter = domain.create_group("Side", COUNTER_INTERFACE, CounterServant)
    slow = group.invoke("run", "slow")
    quick = counter.invoke("increment", 1)
    world.run_until_done([slow, quick], timeout=600)
    assert quick.result() == 1
    assert slow.result() == "slow"
