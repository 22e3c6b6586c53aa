"""Focused unit tests of Replication Mechanisms internals and edges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NoResponse, ReplicationStyle, World
from repro.core import OperationId
from repro.errors import ConfigurationError
from repro.eternal.replication import _deterministic_request_id

from tests.helpers import external_client, make_counter_group, make_domain


def test_deterministic_request_id_is_stable_and_spreads():
    a = _deterministic_request_id(OperationId(100, 3))
    b = _deterministic_request_id(OperationId(100, 3))
    c = _deterministic_request_id(OperationId(101, 3))
    d = _deterministic_request_id(OperationId(100, 4))
    assert a == b
    assert len({a, c, d}) == 3
    assert 0 <= a < 2**32


@given(st.integers(1, 2**24 - 1), st.integers(1, 255),
       st.integers(1, 2**24 - 1), st.integers(1, 255))
def test_deterministic_request_id_injective_in_range_property(t1, s1, t2, s2):
    """Within the masked ranges (24-bit timestamps, 8-bit child counts)
    the derivation is injective — distinct ops, distinct request ids."""
    id1 = _deterministic_request_id(OperationId(t1, s1))
    id2 = _deterministic_request_id(OperationId(t2, s2))
    assert (id1 == id2) == ((t1, s1) == (t2, s2))


def test_votes_needed_by_style(world):
    domain = make_domain(world)
    plain = make_counter_group(domain, name="Plain")
    voting = make_counter_group(domain, name="Voting",
                                style=ReplicationStyle.ACTIVE_WITH_VOTING)
    domain.await_ready(plain)
    domain.await_ready(voting)
    rm = domain.coordinator_rm()
    assert rm.votes_needed(rm.registry.get(plain.group_id)) == 1
    assert rm.votes_needed(rm.registry.get(voting.group_id)) == 2


def test_external_invoke_unknown_group_rejects(world):
    domain = make_domain(world)
    rm = domain.coordinator_rm()
    promise = rm.external_invoke(424242, "value", [], "tester", 1)
    with pytest.raises(ConfigurationError):
        promise.result()


def test_external_invoke_oneway_resolves_immediately(world):
    from repro.iiop import TC_STRING, TC_VOID, TC_LONG
    from repro.orb import Interface, Operation, Param, Servant

    SINK = Interface("Sink", [
        Operation("emit", [Param("s", TC_STRING)], TC_VOID, oneway=True),
        Operation("count", [], TC_LONG),
    ])

    class SinkServant(Servant):
        interface = SINK

        def __init__(self):
            self.n = 0

        def emit(self, s):
            self.n += 1

        def count(self):
            return self.n

    domain = make_domain(world)
    group = domain.create_group("Sink", SINK, SinkServant)
    domain.await_ready(group)
    rm = domain.coordinator_rm()
    promise = rm.external_invoke(group.group_id, "emit", ["x"], "t", 1)
    assert promise.done and promise.result() is None
    world.run(until=world.now + 0.5)
    assert world.await_promise(group.invoke("count")) == 1


def test_invocation_after_group_removal_gets_object_not_exist(world):
    """Once GROUP_REMOVE propagates, the gateway's registry no longer
    knows the object key: the client gets OBJECT_NOT_EXIST, exactly what
    a CORBA client expects of a destroyed object."""
    from repro.errors import CorbaSystemException
    from repro.eternal import DomainMessage, MsgKind
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group)
    world.await_promise(stub.call("increment", 1))
    domain.coordinator_rm().multicast(DomainMessage(
        kind=MsgKind.GROUP_REMOVE, source_group=0, target_group=0,
        data={"group_id": group.group_id}))
    world.run(until=world.now + 0.5)
    with pytest.raises(CorbaSystemException) as excinfo:
        world.await_promise(stub.call("value"), timeout=600)
    assert "ObjectNotExist" in str(excinfo.value)


def test_uppercase_hex_ior_accepted():
    from repro.iiop import Ior
    ior = Ior.for_endpoints("IDL:x:1.0", [("h", 1)], b"k")
    text = ior.to_string()
    upper = "IOR:" + text[4:].upper()
    assert Ior.from_string(upper).primary_profile().address == ("h", 1)


def test_rm_stats_shape(world):
    domain = make_domain(world)
    group = make_counter_group(domain)
    world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 0.3)
    rm = domain.coordinator_rm()
    for key in ("invocations_executed", "responses_delivered",
                "responses_suppressed", "invocations_duplicate",
                "state_transfers_sent", "replays"):
        assert key in rm.stats
        assert rm.stats[key] >= 0


def test_dedup_table_is_bounded(world, monkeypatch):
    import repro.eternal.replication as replication_module
    monkeypatch.setattr(replication_module, "DEDUP_TABLE_LIMIT", 5)
    domain = make_domain(world)
    group = make_counter_group(domain)
    for _ in range(12):
        world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 0.3)
    rm = next(r for r in domain.rms.values()
              if group.group_id in r.replicas)
    assert len(rm._invocations_seen[group.group_id]) <= 5
    # Eviction never broke correctness: state reflects all 12 ops.
    assert world.await_promise(group.invoke("value")) == 12
