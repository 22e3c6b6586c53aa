"""Tests: what is a pure function of immutable bytes is derived once.

The simulated system is unchanged by this — every replica still
executes, logs and replies — so these tests count *host* work: calls to
the decoders on the client -> gateway -> replica path.
"""

import sys

from repro.eternal.execution import Execution
from repro.iiop import IiopProfile, decode_request

from tests.helpers import (
    external_client,
    make_counter_group,
    make_domain,
    replica_counts,
)


def count_calls(monkeypatch, name, real):
    """Count calls of ``real`` through every ``repro`` module that
    imported it by ``name``; returns the list the calls append to."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, name, None) is real):
            monkeypatch.setattr(module, name, counting)
    return calls


def test_one_request_is_decoded_once_for_gateways_and_replicas(
        world, monkeypatch):
    domain = make_domain(world, gateways=2)       # a gateway group of two
    group = make_counter_group(domain, replicas=3)
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("increment", 1)) == 1

    decodes = count_calls(monkeypatch, "decode_request", decode_request)
    executed = []
    real_start = Execution.start
    monkeypatch.setattr(
        Execution, "start",
        lambda self: executed.append(self) or real_start(self))

    assert world.await_promise(stub.call("increment", 2)) == 3
    world.run(until=world.now + 0.5)
    # Every replica executed the request...
    assert set(replica_counts(domain, group).values()) == {3}
    assert len(executed) == 3
    # ...from the one parse made by the gateway that read it off the
    # socket: no peer gateway and no replica parsed the bytes again.
    assert len(decodes) == 1
    assert all(e.request is executed[0].request for e in executed)
    assert executed[0].request.operation == "increment"


def test_persistent_stub_decodes_no_profile_per_invocation(
        world, monkeypatch):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain, replicas=3)
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group)

    decodes = []
    real_decode = IiopProfile.decode
    monkeypatch.setattr(
        IiopProfile, "decode",
        staticmethod(lambda data: decodes.append(data) or real_decode(data)))
    for i in range(1, 101):
        assert world.await_promise(stub.call("increment", 1)) == i
    assert decodes == []
