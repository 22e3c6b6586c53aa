"""End-to-end tests for the miniature ORB (plain, unreplicated CORBA)."""

import pytest

from repro.errors import (
    BadOperation,
    CommFailure,
    CorbaSystemException,
    InvocationFailure,
    NoResponse,
)
from repro.iiop import Ior, TC_LONG, TC_STRING, TC_VOID
from repro.orb import Interface, Operation, Orb, Param, Servant

COUNTER = Interface("Counter", [
    Operation("increment", [Param("amount", TC_LONG)], TC_LONG),
    Operation("value", [], TC_LONG),
    Operation("reset", [], TC_VOID),
    Operation("fail", [Param("reason", TC_STRING)], TC_VOID),
    Operation("log", [Param("note", TC_STRING)], TC_VOID, oneway=True),
])


class CounterServant(Servant):
    interface = COUNTER

    def __init__(self):
        self.count = 0
        self.notes = []

    def increment(self, amount):
        self.count += amount
        return self.count

    def value(self):
        return self.count

    def reset(self):
        self.count = 0

    def fail(self, reason):
        raise InvocationFailure("IDL:repro/CounterError:1.0", reason)

    def log(self, note):
        self.notes.append(note)


def make_pair(world):
    """Returns (client_orb, stub, servant) wired across two hosts."""
    from repro.sim import World
    server_host = world.add_host("server")
    client_host = world.add_host("client")
    server_orb = Orb(world, server_host)
    server_orb.listen(9000)
    servant = CounterServant()
    ior = server_orb.activate_object(servant)
    client_orb = Orb(world, client_host)
    stub = client_orb.string_to_object(ior.to_string(), COUNTER)
    return client_orb, stub, servant


def test_basic_invocation_roundtrip():
    from repro.sim import World
    world = World(seed=1)
    _, stub, servant = make_pair(world)
    result = world.await_promise(stub.call("increment", 5))
    assert result == 5
    assert servant.count == 5


def test_sequential_invocations_accumulate():
    from repro.sim import World
    world = World(seed=2)
    _, stub, servant = make_pair(world)
    for expected in (3, 6, 9):
        assert world.await_promise(stub.call("increment", 3)) == expected


def test_void_result():
    from repro.sim import World
    world = World(seed=3)
    _, stub, servant = make_pair(world)
    world.await_promise(stub.call("increment", 7))
    assert world.await_promise(stub.call("reset")) is None
    assert servant.count == 0


def test_user_exception_propagates():
    from repro.sim import World
    world = World(seed=4)
    _, stub, _ = make_pair(world)
    promise = stub.call("fail", "bad input")
    with pytest.raises(InvocationFailure) as excinfo:
        world.await_promise(promise)
    assert "bad input" in str(excinfo.value)
    assert excinfo.value.repo_id == "IDL:repro/CounterError:1.0"


def test_unknown_object_key_gives_system_exception():
    from repro.sim import World
    world = World(seed=5)
    client_orb, stub, _ = make_pair(world)
    bogus = Ior.for_endpoints("IDL:repro/Counter:1.0", [("server", 9000)],
                              b"no-such-object")
    bad_stub = client_orb.string_to_object(bogus, COUNTER)
    with pytest.raises(CorbaSystemException):
        world.await_promise(bad_stub.call("value"))


def test_unknown_operation_rejected_client_side():
    from repro.sim import World
    world = World(seed=6)
    _, stub, _ = make_pair(world)
    with pytest.raises(BadOperation):
        stub.call("no_such_op")


def test_oneway_invocation_fires_and_forgets():
    from repro.sim import World
    world = World(seed=7)
    _, stub, servant = make_pair(world)
    promise = stub.call("log", "note-1")
    assert promise.done  # resolved immediately, no reply expected
    world.run(until=world.now + 1.0)
    assert servant.notes == ["note-1"]


def test_connection_reused_across_invocations():
    from repro.sim import World
    world = World(seed=8)
    client_orb, stub, _ = make_pair(world)
    world.await_promise(stub.call("increment", 1))
    world.await_promise(stub.call("increment", 1))
    assert len(client_orb._connections) == 1


def test_server_crash_fails_pending_with_comm_failure():
    from repro.sim import World
    world = World(seed=9)
    _, stub, _ = make_pair(world)
    world.await_promise(stub.call("increment", 1))  # establish connection
    promise = stub.call("increment", 1)
    world.network.host("server").crash()
    with pytest.raises(CommFailure):
        world.await_promise(promise)


def test_connect_to_dead_server_fails():
    from repro.sim import World
    world = World(seed=10)
    _, stub, _ = make_pair(world)
    world.network.host("server").crash()
    with pytest.raises(CommFailure):
        world.await_promise(stub.call("value"))


def test_request_timeout():
    from repro.sim import World

    world = World(seed=11)
    server_host = world.add_host("server")
    client_host = world.add_host("client")
    server_orb = Orb(world, server_host)
    server_orb.listen(9000)

    class SilentServant(CounterServant):
        def value(self):
            # Simulate a hung server by never letting the reply out:
            # raise nothing, but the test drops the reply by crashing
            # the server before the reply propagates.
            return 0

    ior = server_orb.activate_object(SilentServant())
    client_orb = Orb(world, client_host, request_timeout=None)
    stub = client_orb.string_to_object(ior.to_string(), COUNTER)
    # Black-hole the reply path: partition right after the request is sent.
    promise = stub.call("value", timeout=5.0)
    world.scheduler.call_after(0.0001, lambda: world.network.partition(
        {"server"}, {"client"}))
    with pytest.raises((NoResponse, CommFailure)):
        world.await_promise(promise)


def test_two_clients_isolated_state_views():
    from repro.sim import World
    world = World(seed=12)
    server_host = world.add_host("server")
    server_orb = Orb(world, server_host)
    server_orb.listen(9000)
    servant = CounterServant()
    ior = server_orb.activate_object(servant)
    stubs = []
    for i in range(2):
        host = world.add_host(f"client{i}")
        orb = Orb(world, host)
        stubs.append(orb.string_to_object(ior.to_string(), COUNTER))
    assert world.await_promise(stubs[0].call("increment", 10)) == 10
    assert world.await_promise(stubs[1].call("increment", 5)) == 15
    assert world.await_promise(stubs[0].call("value")) == 15


def test_server_forgets_a_connection_its_client_closed():
    from repro.sim import World
    world = World(seed=2)
    server_host = world.add_host("server")
    server_orb = Orb(world, server_host)
    server_orb.listen(9000)
    ior = server_orb.activate_object(CounterServant())
    client_orb = Orb(world, world.add_host("client"))
    stub = client_orb.string_to_object(ior.to_string(), COUNTER)
    assert world.await_promise(stub.call("increment", 1)) == 1
    assert len(server_orb._server_connections) == 1
    client_orb.cached_connection(("server", 9000)).close()
    world.run(until=world.now + 1.0)
    assert server_orb._server_connections == []
