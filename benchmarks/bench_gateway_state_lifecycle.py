"""State-lifecycle churn: the gateway retention layer under load.

The functional suite proves each reclaim path works once; this
benchmark drives them in bulk and reports what the retention layer
costs and reclaims:

* one-way churn — every one-way request parks a record in ``_pending``
  at the gateway that accepted it, retired on observed delivery, not by
  a response;
* cancellation churn — every CancelRequest leaves a tombstone that the
  late response consumes (or the TTL reaper, if it never comes);
* the domain-wide resource audit itself — ``world.audit()`` walks every
  registered collection, so its wall cost bounds how often a real
  deployment could afford to run it.

Each scenario ends with ``world.audit(strict=True)``: the benchmark
fails if churn leaks anything above its declared floor.
"""

from repro import Orb, Servant, World
from repro.iiop import TC_LONG, TC_STRING, TC_VOID, encode_cancel_request
from repro.orb import Interface, Operation, Param

from common import build_domain, counter_group, external_stub

EVENTS = Interface("EventSink", [
    Operation("emit", [Param("note", TC_STRING)], TC_VOID, oneway=True),
    Operation("count", [], TC_LONG),
])

ONEWAYS = 50
CANCELS = 10


class EventSinkServant(Servant):
    interface = EVENTS

    def __init__(self):
        self.notes = []

    def emit(self, note):
        self.notes.append(note)

    def count(self):
        return len(self.notes)


def plain_client(world, domain, group, host_name="browser"):
    """A plain (non-enhanced) client whose connection we can reach."""
    host = (world.network.hosts.get(host_name) or world.add_host(host_name))
    orb = Orb(world, host, request_timeout=None)
    stub = orb.string_to_object(domain.ior_for(group).to_string(),
                                group.interface)
    return orb, stub


def test_oneway_churn_reclaims_all_pending(benchmark):
    """Wall cost of a one-way burst through a group of two gateways,
    every record retired by observed delivery — none by TTL."""

    def run():
        world = World(seed=11, trace=False)
        domain = build_domain(world, gateways=2)
        group = domain.create_group("Events", EVENTS, EventSinkServant)
        domain.await_ready(group)
        stub, _ = external_stub(world, domain, group, enhanced=False)
        for i in range(ONEWAYS):
            stub.call("emit", f"note-{i}")
        assert world.await_promise(stub.call("count"), timeout=600) == ONEWAYS
        world.run(until=world.now + 1.0)
        world.audit(strict=True)
        completed = sum(gw.stats["oneways_completed"]
                        for gw in domain.gateways)
        reaped = sum(gw.stats["oneways_reaped"] for gw in domain.gateways)
        assert all(gw._pending == {} for gw in domain.gateways)
        return {"oneways_sent": ONEWAYS, "oneways_completed": completed,
                "oneways_reaped": reaped}

    row = benchmark.pedantic(run, rounds=2, iterations=1)
    assert row["oneways_completed"] >= ONEWAYS
    assert row["oneways_reaped"] == 0
    benchmark.extra_info.update(row)


def test_cancel_churn_tombstones_consumed_by_responses(benchmark):
    """Pipelined requests cancelled in flight: the responses still
    arrive, are dropped as unroutable, and consume their tombstones —
    the TTL reaper never has to fire."""

    def run():
        world = World(seed=11, trace=False)
        domain = build_domain(world, gateways=1)
        group = counter_group(domain)
        gateway = domain.gateways[0]
        orb, stub = plain_client(world, domain, group)
        world.await_promise(stub.call("increment", 1), timeout=600)
        for _ in range(CANCELS):
            stub.call("increment", 1)
        # Cancels chase the requests down the same connection with no
        # gap, so they reach the gateway while the operations are still
        # in flight in the domain.
        connection = orb._connections[next(iter(orb._connections))]
        for request_id in list(connection.pending_request_ids()):
            connection.endpoint.send(encode_cancel_request(request_id))
        world.run(until=world.now + 2.0)
        world.audit(strict=True)
        assert gateway._cancelled == set()
        stats = dict(gateway.stats)
        return {"cancels": stats["cancels"],
                "cancels_reaped": stats["cancels_reaped"],
                "responses_unroutable": stats["responses_unroutable"]}

    row = benchmark.pedantic(run, rounds=2, iterations=1)
    assert row["cancels"] == CANCELS
    assert row["responses_unroutable"] == CANCELS
    assert row["cancels_reaped"] == 0
    benchmark.extra_info.update(row)


def test_audit_walk_cost(benchmark):
    """Wall cost of one full audit over a populated domain (every
    gateway/RM/scheduler collection snapshotted and gauged)."""
    world = World(seed=11, trace=False)
    domain = build_domain(world, gateways=2)
    group = counter_group(domain)
    stub, _ = external_stub(world, domain, group, enhanced=False)
    for _ in range(10):
        world.await_promise(stub.call("increment", 1), timeout=600)
    world.run(until=world.now + 1.0)

    report = benchmark(world.audit)
    assert report.ok
    benchmark.extra_info["collections_audited"] = len(report.rows)
