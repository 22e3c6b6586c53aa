"""State bounded by live clients: a client's floor retires its records.

Every request carries its client's floor — the lowest request id it
still awaits a reply for.  Gateways and replicas keep a client's
duplicate-suppression records only from that floor up, so what they
hold is bounded by the clients alive, not by the calls ever made, and
a copy below the floor is a duplicate by definition: never executed
again, never answered again, counted as ``DUPLICATE`` at a gateway.
"""

import gc
import tracemalloc

import pytest

from repro import FtClientLayer, Orb, World
from repro.sim.world import Promise
from repro.core import OperationId, external_operation_id
from repro.eternal.messages import DomainMessage, MsgKind
from repro.eternal.naming import GATEWAY_GROUP, make_object_key
from repro.iiop import RequestMessage, encode_request
from repro.orb.dispatch import encode_arguments, reply_for_result

from tests.helpers import (
    crash_gateway_on_response,
    external_client,
    make_counter_group,
    make_domain,
    replica_counts,
)


def table_sizes(world, domain, group):
    """Every processor's dedup tables and every gateway filter's
    delivered memory, by owner, as the audit reads them; and, at each
    replica of ``group`` and each gateway, the records its clients
    hold there."""
    audited = {(row.owner, row.name): row.size for row in world.audit().rows
               if row.name in ("rm.dedup", "gateway.filter.delivered")}
    held = [len(rm._invocations_seen[group.group_id])
            for rm in replicas(domain, group)]
    held += [len(gateway._filter._delivered) for gateway in domain.gateways]
    return audited, held


def closed_loop(world, stubs, calls):
    """Each stub makes ``calls`` increments, one after the other."""
    finished = []

    def step(stub, left, done):
        if not left:
            done.resolve(None)
            return
        stub.call("increment", 1).on_done(
            lambda _: step(stub, left - 1, done))

    for stub in stubs:
        done = Promise()
        finished.append(done)
        step(stub, calls, done)
    world.run_until_done(finished, timeout=3600)
    world.run(until=world.now + 0.5)


@pytest.mark.parametrize("calls", [
    60, pytest.param(10_000, marks=pytest.mark.full_sweep)])
def test_soak_state_after_2n_calls_equals_state_after_n(calls):
    """Four enhanced clients and one plain persistent client through two
    mirrored gateways: after N more calls each, every replica's dedup
    table, every gateway's reply memory and the traced memory are where
    they were after the first N.  (Before floors they all grew with
    every call, up to the count backstops.)"""
    world = World(seed=11)
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    domain.await_ready(group)
    ior = domain.ior_for(group).to_string()
    stubs = []
    for i in range(4):
        orb = Orb(world, world.add_host(f"enhanced{i}"), request_timeout=None)
        stubs.append(FtClientLayer(orb, client_uid=f"soak/{i}")
                     .string_to_object(ior, group.interface))
    plain = Orb(world, world.add_host("plain"), request_timeout=None)
    stubs.append(plain.string_to_object(ior, group.interface))

    closed_loop(world, stubs, calls)
    after_n = table_sizes(world, domain, group)
    gc.collect()
    tracemalloc.start()
    try:
        closed_loop(world, stubs, calls)
        after_2n = table_sizes(world, domain, group)
        gc.collect()
        grown, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert after_2n == after_n
    # One record per client at every replica and at every gateway.
    assert after_n[1] == [len(stubs)] * 5
    assert grown < 64 * 1024, f"{grown} B retained by {calls} more calls"
    assert set(replica_counts(domain, group).values()) == {
        2 * calls * len(stubs)}
    assert world.metrics.value("dedup.evicted") == 0
    assert world.metrics.value("rm.dedup.retired") == 3 * (
        2 * calls - 1) * len(stubs)
    world.audit(strict=True)


# ----------------------------------------------------------------------
# Copies below the floor are duplicates
# ----------------------------------------------------------------------

def invocation(domain, group, client, request_id, floor=None, amount=1):
    """A gateway-sourced INVOCATION of ``increment(amount)`` as the
    gateway would forward it for ``client``'s request ``request_id``."""
    op = group.interface.operation("increment")
    request = RequestMessage(
        request_id=request_id, response_expected=True,
        object_key=make_object_key(domain.name, group.group_id),
        operation="increment", body=encode_arguments(op, [amount]))
    return DomainMessage(
        kind=MsgKind.INVOCATION, source_group=GATEWAY_GROUP,
        target_group=group.group_id, client_id=client,
        op_id=external_operation_id(request_id), iiop=encode_request(request),
        floor=None if floor is None else external_operation_id(floor))


def replicas(domain, group):
    return [rm for rm in domain.rms.values()
            if group.group_id in rm.replicas and rm.alive]


def test_a_late_copy_below_the_floor_is_neither_executed_nor_answered(world):
    domain = make_domain(world)
    group = make_counter_group(domain)
    domain.await_ready(group)
    rm = domain.coordinator_rm()
    rm.multicast(invocation(domain, group, "c#1", 5, floor=5))
    rm.multicast(invocation(domain, group, "c#1", 6, floor=6))
    world.run(until=world.now + 0.5)
    before = {r.host.name: dict(r.stats) for r in replicas(domain, group)}
    rm.multicast(invocation(domain, group, "c#1", 5, floor=5))
    world.run(until=world.now + 0.5)
    assert set(replica_counts(domain, group).values()) == {2}
    for r in replicas(domain, group):
        was = before[r.host.name]
        assert r.stats["invocations_duplicate"] == (
            was["invocations_duplicate"] + 1)
        assert r.stats["invocations_executed"] == was["invocations_executed"]
        assert r.stats["responses_resent"] == was["responses_resent"]
        # Only the record at the floor is left.
        assert list(r._invocations_seen[group.group_id]) == [
            (GATEWAY_GROUP, "c#1", OperationId(0, 6))]


def test_a_late_response_for_a_retired_reply_is_a_duplicate(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("increment", 1)) == 1
    first = [key for key in domain.gateways[0]._filter._delivered]
    assert world.await_promise(stub.call("increment", 1)) == 2
    world.run(until=world.now + 0.5)
    (key,) = first
    assert all(not gateway._filter._delivered.get(key)
               and gateway._filter.was_delivered(key)
               for gateway in domain.gateways)
    before = [dict(gateway.stats) for gateway in domain.gateways]
    domain.coordinator_rm().multicast(DomainMessage(
        kind=MsgKind.RESPONSE, source_group=group.group_id,
        target_group=GATEWAY_GROUP, client_id=key[1], op_id=key[2],
        iiop=reply_for_result(key[2].child_seq,
                              group.interface.operation("increment"), 1),
        data={"responder": "late"}))
    world.run(until=world.now + 0.5)
    for gateway, was in zip(domain.gateways, before):
        assert gateway.stats["duplicates_suppressed"] == (
            was["duplicates_suppressed"] + 1)
        assert gateway.stats["responses_unexpected"] == (
            was["responses_unexpected"])
        assert gateway.stats["responses_delivered"] == (
            was["responses_delivered"])
    assert world.metrics.value("gateway.filter.retired") == 2
    world.audit(strict=True)


def test_a_replica_joined_after_the_floor_moved_drops_the_late_copy(world):
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=3, min_replicas=3)
    domain.await_ready(group)
    rm = domain.coordinator_rm()
    rm.multicast(invocation(domain, group, "c#1", 5, floor=5))
    rm.multicast(invocation(domain, group, "c#1", 6, floor=6))
    world.run(until=world.now + 0.5)
    placed = group.info().placement
    world.faults.crash_now(next(host for host in placed
                                if host != rm.host.name))
    world.run(until=world.now + 2.0)   # replacement + state transfer
    (joiner,) = set(group.info().placement) - set(placed)
    joined = domain.rms[joiner]
    assert joined.stats["state_transfers_received"] == 1
    table = joined._invocations_seen[group.group_id]
    assert [(client, floor) for client, _, floor in table.clients()
            if client == (GATEWAY_GROUP, "c#1")] == [
        ((GATEWAY_GROUP, "c#1"), OperationId(0, 6))]
    was = dict(joined.stats)
    domain.coordinator_rm().multicast(
        invocation(domain, group, "c#1", 5, floor=5))
    world.run(until=world.now + 0.5)
    assert joined.stats["invocations_duplicate"] == (
        was["invocations_duplicate"] + 1)
    assert joined.stats["invocations_executed"] == (
        was["invocations_executed"])
    assert set(replica_counts(domain, group).values()) == {2}


def test_a_reissue_then_a_floor_raising_call_executes_each_once(world):
    """Crash the serving gateway while its call is answered, let the
    client reissue through the other gateway, then make the next call,
    whose floor retires the first: the counter moves once per call."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group)
    assert world.await_promise(stub.call("increment", 1)) == 1
    crash_gateway_on_response(world, domain.gateways[0])
    assert world.await_promise(stub.call("increment", 10), timeout=240) == 11
    assert stub.requester.stats["reissued"] == 1
    assert world.await_promise(stub.call("increment", 100)) == 111
    world.run(until=world.now + 0.5)
    assert set(replica_counts(domain, group).values()) == {111}
    for rm in replicas(domain, group):
        table = rm._invocations_seen[group.group_id]
        assert [held for client, held, _ in table.clients()
                if client[0] == GATEWAY_GROUP] == [1]
    world.audit(strict=True)


def test_replicas_forget_a_plain_client_that_left(world):
    """A plain client can only ever return through the gateway that
    numbered it, so when it closes its connection every replica drops
    its last record and its floor, at the CLIENT_GONE delivery where
    every gateway purges it."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    domain.await_ready(group)
    orb, stub, _ = external_client(world, domain, group, enhanced=False)
    for expected in (1, 2, 3):
        assert world.await_promise(stub.call("increment", 1)) == expected
    (member,) = {member for carried in domain.gateways[0]._conn_clients
                 .values() for member in carried}
    client = (GATEWAY_GROUP, member[1])

    def held():
        return {(rm.host.name, count, floor) for rm in replicas(domain, group)
                for who, count, floor
                in rm._invocations_seen[group.group_id].clients()
                if who == client}

    assert {(count, floor) for _, count, floor in held()} == {
        (1, external_operation_id(3))}
    orb._connections[next(iter(orb._connections))].close()
    world.run(until=world.now + 0.5)
    assert world.metrics.value("gateway.clients.gone") == 2
    assert held() == set()
    world.audit(strict=True)
