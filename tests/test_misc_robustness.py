"""Assorted robustness tests across layers."""

import pytest

from repro import FtClientLayer, Orb, ReplicationStyle, Servant, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.errors import MarshalError
from repro.iiop import TC_LONG
from repro.orb import Interface, Operation, Param

from tests.helpers import external_client, make_counter_group, make_domain


def test_stub_rejects_wrong_argument_count(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group)
    with pytest.raises(MarshalError):
        stub.call("increment")          # missing argument
    with pytest.raises(MarshalError):
        stub.call("increment", 1, 2)    # extra argument


def test_stub_rejects_wrong_argument_type(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group)
    with pytest.raises(MarshalError):
        stub.call("increment", "not-a-number")


def test_custom_state_protocol_is_used_by_state_transfer(world):
    """Servants may override get_state/set_state; the infrastructure
    must honour the override during replacement-replica transfer."""
    TALLY = Interface("Tally", [
        Operation("add", [Param("n", TC_LONG)], TC_LONG),
    ])

    class TallyServant(Servant):
        interface = TALLY

        def __init__(self):
            self._entries = []          # private: default would skip it

        def add(self, n):
            self._entries.append(n)
            return sum(self._entries)

        def get_state(self):
            return {"entries": list(self._entries)}

        def set_state(self, state):
            self._entries = list(state["entries"])

    domain = make_domain(world, num_hosts=4)
    group = domain.create_group("Tally", TALLY, TallyServant,
                                num_replicas=3, min_replicas=3)
    assert world.await_promise(group.invoke("add", 5)) == 5
    assert world.await_promise(group.invoke("add", 7)) == 12
    victim = group.info().placement[0]
    world.faults.crash_now(victim)
    world.run(until=world.now + 2.0)
    replacement = [h for h in group.info().placement
                   if h not in (victim,)][-1]
    record = domain.rms[replacement].replicas[group.group_id]
    assert record.servant.get_state() == {"entries": [5, 7]}
    assert world.await_promise(group.invoke("add", 1)) == 13


def test_two_enhanced_clients_fail_over_simultaneously(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    _, stub_a, layer_a = external_client(world, domain, group,
                                         host_name="alice")
    _, stub_b, layer_b = external_client(world, domain, group,
                                         host_name="bob")
    world.run_until_done([stub_a.call("increment", 1),
                          stub_b.call("increment", 1)], timeout=600)
    world.faults.crash_now(domain.gateways[0].host.name)
    promises = [stub_a.call("increment", 1), stub_b.call("increment", 1)]
    world.run_until_done(promises, timeout=600)
    assert sorted(p.result() for p in promises) == [3, 4]
    assert layer_a.failover_log and layer_b.failover_log


def test_gateway_response_cache_is_bounded(world, monkeypatch):
    import repro.core.gateway as gateway_module
    monkeypatch.setattr(gateway_module, "REPLY_MEMORY", 5)
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group)
    for _ in range(12):
        world.await_promise(stub.call("increment", 1), timeout=600)
    world.run(until=world.now + 0.5)
    assert len(gateway._filter._delivered) <= 5


def test_nested_encapsulation_roundtrip():
    from repro.iiop import CdrInputStream, CdrOutputStream
    out = CdrOutputStream()

    def inner_inner(stream):
        stream.write_string("deep")

    def inner(stream):
        stream.write_ulong(1)
        stream.write_encapsulation(inner_inner)

    out.write_encapsulation(inner)
    stream = CdrInputStream(out.getvalue())
    level1 = stream.read_encapsulation()
    assert level1.read_ulong() == 1
    level2 = level1.read_encapsulation()
    assert level2.read_string() == "deep"


def test_mixed_style_nested_chain(world):
    """An active group calling a warm-passive group calling back into
    an active ledger: styles compose through nesting."""
    from repro import NestedCall
    from repro.apps import LEDGER_INTERFACE, LedgerServant

    MIDDLE = Interface("Middle", [
        Operation("note", [Param("n", TC_LONG)], TC_LONG),
    ])

    class MiddleServant(Servant):
        interface = MIDDLE

        def note(self, n):
            entry_count = yield NestedCall("Ledger", "record", [f"n={n}"])
            return entry_count

    FRONT = Interface("Front", [
        Operation("go", [Param("n", TC_LONG)], TC_LONG),
    ])

    class FrontServant(Servant):
        interface = FRONT

        def go(self, n):
            result = yield NestedCall("Middle", "note", [n])
            return result

    domain = make_domain(world, num_hosts=4)
    domain.create_group("Ledger", LEDGER_INTERFACE, LedgerServant,
                        style=ReplicationStyle.ACTIVE)
    domain.create_group("Middle", MIDDLE, MiddleServant,
                        style=ReplicationStyle.WARM_PASSIVE)
    front = domain.create_group("Front", FRONT, FrontServant,
                                style=ReplicationStyle.ACTIVE)
    assert world.await_promise(front.invoke("go", 1), timeout=600) == 1
    assert world.await_promise(front.invoke("go", 2), timeout=600) == 2
