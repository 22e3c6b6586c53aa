"""A request whose deadline expires is let go everywhere.

The caller is told ``NoResponse``; from then on nothing may wait for
the reply or reissue the call: not the plain ORB's connection, not the
enhanced client's pending table (a later failover would otherwise
reissue a call that was reported failed), and not its trace root.
Both tables are audited, floor 0.
"""

from __future__ import annotations

import pytest

from repro import World
from repro.errors import NoResponse
from tests.helpers import external_client, make_domain, ready_counter_group


def _call_through_a_partition(enhanced):
    world = World(seed=4, trace_spans=True)
    domain = make_domain(world, gateways=2)
    group = ready_counter_group(domain)
    orb, stub, _ = external_client(world, domain, group, enhanced=enhanced)
    assert world.await_promise(stub.call("increment", 1), timeout=60) == 1
    gateways = [gw.host.name for gw in domain.gateways]
    now = world.now
    world.faults.partition([orb.host.name], gateways, at=now + 0.001,
                           heal_at=now + 3.0)
    world.run(until=now + 0.01)
    promise = stub.call("increment", 1, timeout=1.0)
    world.run(until=world.now + 60.0)
    with pytest.raises(NoResponse):
        promise.result()
    audited = {row.name for row in world.audit().rows
               if row.owner == orb.name}
    assert audited == {"orb.pending", "client.pending"}
    return world, orb, stub


def test_plain_orb_lets_an_expired_request_go():
    world, orb, _ = _call_through_a_partition(enhanced=False)
    assert all(not c.pending_request_ids()
               for c in orb._connections.values())
    world.audit(strict=True)


def test_enhanced_client_lets_an_expired_request_go():
    world, orb, stub = _call_through_a_partition(enhanced=True)
    requester = stub.requester
    assert requester.pending == {}
    assert requester._trace_roots == {}
    assert requester.connection.pending_request_ids() == []
    roots = [s for s in world.trace_collector.spans
             if s.name == "client.request"]
    assert roots and all(s.closed for s in roots)
    assert roots[-1].attrs["error"] == "NoResponse"
    world.audit(strict=True)
