"""Tests for graceful gateway shutdown (drain)."""

import pytest

from repro import CommFailure, World
from repro.iiop.giop import RequestMessage, encode_request

from tests.helpers import external_client, make_counter_group, make_domain


def test_drain_serves_in_flight_requests_before_stopping(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group)
    world.await_promise(stub.call("increment", 1))
    promise = stub.call("increment", 10)
    drained = gateway.drain()
    # The in-flight request completes...
    assert world.await_promise(promise, timeout=600) == 11
    # ...and only then does the gateway stop.
    world.await_promise(drained, timeout=600)
    assert not gateway.alive
    # A drained gateway leaves nothing above its floors behind (its own
    # frozen tables are skipped as inactive; the rest must be clean).
    world.run(until=world.now + 1.0)
    world.audit(strict=True)


def test_drained_gateway_refuses_new_connections(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    world.await_promise(gateway.drain(), timeout=600)
    host = world.add_host("late-client")
    state = {}
    world.tcp.connect(host, (gateway.host.name, gateway.port),
                      lambda ep: state.setdefault("ok", ep),
                      lambda exc: state.setdefault("err", exc))
    world.scheduler.run_until(lambda: state)
    assert isinstance(state["err"], CommFailure)


def test_drain_with_redundant_gateway_is_invisible_to_enhanced_clients(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    assert world.await_promise(stub.call("increment", 1)) == 1
    world.await_promise(domain.gateways[0].drain(), timeout=600)
    # The next invocation fails over to the second gateway and succeeds.
    assert world.await_promise(stub.call("increment", 1), timeout=600) == 2
    assert layer.failover_log
    world.run(until=world.now + 1.0)
    world.audit(strict=True)


def test_drain_idle_gateway_stops_immediately(world):
    domain = make_domain(world, gateways=1)
    gateway = domain.gateways[0]
    world.await_promise(gateway.drain(), timeout=60)
    assert not gateway.alive


@pytest.mark.parametrize("how", ["host_crash", "stop"])
def test_drain_promise_settles_however_the_gateway_stops(world, how):
    """The promise is resolved once the gateway has stopped, whatever
    stopped it: a host crash or a plain stop during the grace ends the
    drain too."""
    domain = make_domain(world, gateways=2)
    gateway = domain.gateways[0]
    drained = gateway.drain()
    world.run(until=world.now + 0.1)
    if how == "host_crash":
        world.faults.crash_now(gateway.host.name)
    else:
        gateway.stop()
    world.run(until=world.now + 5.0)
    assert drained.done and not drained.failed
    assert not gateway.alive
    assert gateway.drain() is drained


def idle_connection(world, gateway, host_name="idler"):
    """A raw TCP connection to ``gateway`` that never sends a byte —
    what an enhanced client's warm standby looks like from here."""
    state = {"closed": False}
    world.tcp.connect(world.add_host(host_name),
                      (gateway.host.name, gateway.port),
                      lambda ep: state.setdefault("ep", ep),
                      lambda exc: state.setdefault("err", exc))
    world.scheduler.run_until(lambda: len(state) > 1)
    state["ep"].on_close = lambda: state.update(closed=True)
    return state


def test_idle_connection_is_closed_when_its_gateway_drains(world):
    """Regression: only connections that had carried a request were
    closed on a graceful stop, so an idle one stayed open to a gateway
    that was no longer one."""
    domain = make_domain(world, gateways=2)
    gateway = domain.gateways[0]
    state = idle_connection(world, gateway)
    world.await_promise(gateway.drain(), timeout=600)
    world.run(until=world.now + 0.1)
    assert state["closed"]
    assert not state["ep"].open


def test_stopped_gateway_keeps_no_connection_table(world):
    """A graceful stop closes every connection, and each close drops its
    entry — the clients it carried included — although nobody is
    announced as gone (they fail over to a peer)."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    assert world.await_promise(stub.call("increment", 1)) == 1
    assert any(gateway._conn_clients.values())
    world.await_promise(gateway.drain(), timeout=600)
    world.run(until=world.now + 0.1)
    assert gateway._conn_clients == {}
    assert world.metrics.value("gateway.clients.gone") == 0


def test_request_reaching_a_stopped_gateway_is_a_no_op(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    assert world.await_promise(stub.call("increment", 1)) == 1
    connection = next(iter(gateway._conn_clients))
    gateway.stop()
    before = dict(gateway.stats)
    gateway._on_client_message(encode_request(RequestMessage(
        request_id=99, response_expected=True,
        object_key=stub.ior.primary_profile().object_key,
        operation="increment", body=b"")), connection)
    assert gateway.stats == before


def test_idle_connections_are_audited_and_dropped_on_close(world):
    domain = make_domain(world, gateways=1)
    gateway = domain.gateways[0]
    state = idle_connection(world, gateway)
    world.audit(strict=True)            # open and idle: at its floor
    assert world.metrics.value("gateway.state.connections") == 1
    state["ep"].close()
    world.run(until=world.now + 0.1)
    assert gateway._conn_clients == {}
    world.audit(strict=True)


def test_connection_the_gateway_hangs_up_on_is_not_retained(world):
    """Garbage on the wire makes the gateway answer MessageError and
    close its end: the owner must hear of that close like any other."""
    domain = make_domain(world, gateways=1)
    gateway = domain.gateways[0]
    state = idle_connection(world, gateway)
    state["ep"].send(b"this is not GIOP, not even close")
    world.run(until=world.now + 0.1)
    assert state["closed"]
    assert gateway._conn_clients == {}
    world.audit(strict=True)
