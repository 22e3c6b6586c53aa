"""Unit-ish tests for the cross-domain egress component."""

import pytest

from repro import NestedCall, ReplicationStyle, Servant, World
from repro.apps import (
    COUNTER_INTERFACE,
    CounterServant,
    SETTLEMENT_INTERFACE,
    SettlementServant,
)
from repro.errors import ConfigurationError, CorbaSystemException
from repro.iiop import TC_LONG
from repro.orb import Interface, Operation, Param

from tests.helpers import make_domain

CALLER = Interface("Caller", [
    Operation("call_out", [Param("amount", TC_LONG)], TC_LONG),
])


def make_caller_servant(target_ior, interface_name="Settlement"):
    class CallerServant(Servant):
        interface = CALLER

        def call_out(self, amount):
            result = yield NestedCall(target_ior, "settle",
                                      ["egress-test", amount],
                                      interface=interface_name)
            return result

    return CallerServant


def build_remote(world):
    remote = make_domain(world, name="remote", gateways=1)
    settlement = remote.create_group("Settlement", SETTLEMENT_INTERFACE,
                                     SettlementServant)
    remote.await_ready(settlement)
    return remote, settlement, remote.ior_for(settlement).to_string()


def test_egress_uses_deterministic_client_uid(world):
    remote, settlement, ior = build_remote(world)
    local = make_domain(world, name="local")
    local.register_interface(SETTLEMENT_INTERFACE)
    caller = local.create_group("Caller", CALLER, make_caller_servant(ior))
    world.await_promise(caller.invoke("call_out", 5), timeout=600)
    egress = local.egresses[caller.info().placement[0]]
    assert egress._client_uid(caller.group_id) == f"egress/local/g{caller.group_id}"


def test_egress_call_settles_exactly_once(world):
    remote, settlement, ior = build_remote(world)
    local = make_domain(world, name="local")
    local.register_interface(SETTLEMENT_INTERFACE)
    caller = local.create_group("Caller", CALLER, make_caller_servant(ior))
    result = world.await_promise(caller.invoke("call_out", 7), timeout=600)
    assert result == 1  # first settlement
    world.run(until=world.now + 0.5)
    counts = {rm.replicas[settlement.group_id].servant.settled_count()
              for rm in remote.rms.values()
              if settlement.group_id in rm.replicas}
    assert counts == {1}
    # Exactly one egress host transmitted; all recorded; all completed.
    issued = sum(e.stats["issued"] + e.stats["reissued"]
                 for e in local.egresses.values())
    completed = sum(e.stats["completed"] for e in local.egresses.values())
    assert issued == 1
    assert completed == len(caller.info().placement)


def test_egress_missing_interface_name_fails_cleanly(world):
    remote, settlement, ior = build_remote(world)
    local = make_domain(world, name="local")
    local.register_interface(SETTLEMENT_INTERFACE)

    class NoInterfaceServant(Servant):
        interface = CALLER

        def call_out(self, amount):
            result = yield NestedCall(ior, "settle", ["x", amount])  # no interface=
            return result

    caller = local.create_group("Caller", CALLER, NoInterfaceServant)
    with pytest.raises(Exception):
        world.await_promise(caller.invoke("call_out", 1), timeout=600)


def test_egress_unregistered_interface_fails_cleanly(world):
    remote, settlement, ior = build_remote(world)
    local = make_domain(world, name="local")  # Settlement NOT registered
    caller = local.create_group("Caller", CALLER, make_caller_servant(ior))
    with pytest.raises(Exception):
        world.await_promise(caller.invoke("call_out", 1), timeout=600)


def test_egress_outstanding_cleaned_after_completion(world):
    remote, settlement, ior = build_remote(world)
    local = make_domain(world, name="local")
    local.register_interface(SETTLEMENT_INTERFACE)
    caller = local.create_group("Caller", CALLER, make_caller_servant(ior))
    world.await_promise(caller.invoke("call_out", 2), timeout=600)
    world.run(until=world.now + 0.5)
    for egress in local.egresses.values():
        assert not egress.outstanding


def test_egress_retries_next_profile_when_first_gateway_down(world):
    remote = make_domain(world, name="remote", gateways=2)
    settlement = remote.create_group("Settlement", SETTLEMENT_INTERFACE,
                                     SettlementServant)
    remote.await_ready(settlement)
    ior = remote.ior_for(settlement).to_string()
    # First profile's gateway dies before the local domain ever calls.
    world.faults.crash_now(remote.gateways[0].host.name)
    world.run(until=world.now + 0.5)
    local = make_domain(world, name="local")
    local.register_interface(SETTLEMENT_INTERFACE)
    caller = local.create_group("Caller", CALLER, make_caller_servant(ior))
    assert world.await_promise(caller.invoke("call_out", 3), timeout=600) == 1


def test_egress_gives_up_with_comm_failure_when_every_remote_gateway_is_dead(world):
    """With no remote gateway left, the egress host stops retrying when
    its requester gives up and says so: a COMM_FAILURE reply is
    multicast as the EXTERNAL response, every replica of the invoking
    group resumes with the error at the same point in the total order,
    and nothing is left waiting (it used to give up quietly and the
    cross-domain call never resolved)."""
    remote = make_domain(world, name="remote", gateways=2)
    settlement = remote.create_group("Settlement", SETTLEMENT_INTERFACE,
                                     SettlementServant)
    remote.await_ready(settlement)
    ior = remote.ior_for(settlement).to_string()
    for gateway in remote.gateways:
        world.faults.crash_now(gateway.host.name)
    world.run(until=world.now + 0.5)
    local = make_domain(world, name="local")
    local.register_interface(SETTLEMENT_INTERFACE)

    class CatchingServant(Servant):
        interface = CALLER

        def call_out(self, amount):
            try:
                yield NestedCall(ior, "settle", ["egress-test", amount],
                                 interface="Settlement")
            except CorbaSystemException as exc:
                return -1 if "CommFailure" in str(exc) else -2

    caller = local.create_group("Caller", CALLER, CatchingServant)
    assert world.await_promise(caller.invoke("call_out", 3), timeout=120) == -1
    world.run(until=world.now + 1.0)
    egress = local.egresses[caller.info().placement[0]]
    # One send, then one reissue per failover until FtRequester's give-up
    # (more than 2 x len(profiles) failovers since the last reply).
    assert egress.stats["issued"] + egress.stats["reissued"] == 1 + 2 * 2
    assert all(e.stats["completed"] == 1 for e in local.egresses.values()
               if e.rm.host.name in caller.info().placement)
    assert not any(e.outstanding for e in local.egresses.values())
    world.audit(strict=True)
