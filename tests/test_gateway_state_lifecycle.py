"""Regression tests: per-client gateway state must be reclaimed.

Each test pins one of the state-lifecycle leaks fixed alongside the
resource-leak audit.  All of them were invisible to the functional
suite — responses still flowed correctly — while a per-client table
grew without bound:

* one-way requests and cancels left records that no reply ever
  ended (the gateway now keeps a record only while a reply is owed);
* a client closing with operations still pending suppressed the
  CLIENT_GONE broadcast forever, stranding its state at every gateway;
* the warm-passive primary logged every invocation but never truncated
  its own log.
"""

import pytest

from repro import CommFailure, GatewayPool, ReplicationStyle, World
from repro.iiop import encode_cancel_request

from tests.helpers import (
    EVENTS,
    EventSinkServant,
    external_client,
    make_counter_group,
    make_domain,
    ready_counter_group,
    replica_counts,
)

def hold_forward(gateway):
    """Intercept the gateway's domain forward so requests stay pending."""
    held = []
    original = gateway._forward
    gateway._forward = lambda pending: held.append(pending)
    return held, original


def send_cancel_for_last_request(world, orb, settle=0.1):
    connection = orb._connections[next(iter(orb._connections))]
    request_id = connection.pending_request_ids()[-1]
    # A client that cancels stops waiting for the reply.
    connection.abandon(request_id)
    connection.endpoint.send(encode_cancel_request(request_id))
    world.run(until=world.now + settle)


def test_cancel_churn_leaves_nothing_behind():
    """Pipelined requests cancelled in flight: the cancels change
    nothing at the gateway, the replies are written back as usual, the
    client ORB drops them, and nothing is left anywhere."""
    cancels = 10
    world = World(seed=11)
    domain = make_domain(world, gateways=1)
    group = ready_counter_group(domain)
    gateway = domain.gateways[0]
    orb, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1), timeout=600)
    for _ in range(cancels):
        stub.call("increment", 1)
    # Cancels chase the requests down the same connection with no gap,
    # so they reach the gateway while the operations are still in
    # flight in the domain.
    connection = orb._connections[next(iter(orb._connections))]
    for request_id in list(connection.pending_request_ids()):
        connection.abandon(request_id)
        connection.endpoint.send(encode_cancel_request(request_id))
    world.run(until=world.now + 2.0)
    world.audit(strict=True)
    assert gateway.stats["cancels"] == cancels
    assert gateway.stats["responses_delivered"] == cancels + 1
    assert connection.pending_request_ids() == []


def test_a_oneway_through_two_gateways_leaves_no_state_and_no_open_span():
    """No reply is owed for a one-way, so no gateway keeps anything for
    it: the gateway that reads it off the socket forwards it and closes
    its ``gateway.request`` span at once, with outcome ``oneway`` and no
    ordering wait, as the client closes its root at transmission."""
    world = World(seed=11, trace_spans=True)
    domain = make_domain(world, gateways=2)
    group = domain.create_group("Events", EVENTS, EventSinkServant)
    _, stub, _ = external_client(world, domain, group)
    spans = world.trace_collector
    for i in range(3):
        stub.call("emit", f"note-{i}")
    world.run(until=world.now + 1.0)
    for gateway in domain.gateways:
        assert gateway._filter.pending_count == 0
        assert gateway.stats["mirrors_recorded"] == 0
    containers = spans.select(name="gateway.request")
    assert len(containers) == 3
    assert all(span.closed for span in containers)
    assert {span.attrs["outcome"] for span in containers} == {"oneway"}
    assert spans.select(name="totem.order.invocation") == []
    assert world.await_promise(stub.call("count"), timeout=600) == 3
    world.run(until=world.now + 1.0)
    world.audit(strict=True)


def test_a_oneway_in_flight_does_not_defer_client_gone(world):
    """Only a two-way request's waiter defers a departing client's
    CLIENT_GONE: a one-way needs nothing from the peers, so the purge
    goes out at once, while the forward already handed to the domain is
    still executed."""
    domain = make_domain(world, gateways=2)
    group = domain.create_group("Events", EVENTS, EventSinkServant)
    orb, stub, _ = external_client(world, domain, group, enhanced=False)
    assert world.await_promise(stub.call("count"), timeout=600) == 0
    origin = next(gw for gw in domain.gateways
                  if any(gw._conn_clients.values()))
    held, forward = hold_forward(origin)
    stub.call("emit", "in flight at the close")
    world.run(until=world.now + 0.1)
    assert held
    orb._connections[next(iter(orb._connections))].close()
    world.run(until=world.now + 0.5)
    assert origin.stats["client_gone_deferred"] == 0
    assert [gw.stats["clients_gone"] for gw in domain.gateways] == [1, 1]
    forward(held[0])
    world.run(until=world.now + 1.0)
    notes = {tuple(rm.replicas[group.group_id].servant.notes)
             for rm in domain.rms.values()
             if group.group_id in rm.replicas}
    assert notes == {("in flight at the close",)}
    world.audit(strict=True)


def test_client_gone_deferred_until_last_pending_resolves(world):
    """A client closing with an operation still in flight must not
    suppress the CLIENT_GONE broadcast forever: it fires once the last
    pending operation resolves, and every gateway then purges the
    departed client's state."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    orb, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1))
    origin = next(gw for gw in domain.gateways
                  if any(gw._conn_clients.values()))
    peer = next(gw for gw in domain.gateways if gw is not origin)
    held, original = hold_forward(origin)
    stub.call("increment", 10)
    world.run(until=world.now + 0.1)
    assert held
    member = next(iter(origin._routing))
    assert member[0] == group.group_id
    # The client disconnects while the operation is still pending.
    orb._connections[next(iter(orb._connections))].close()
    world.run(until=world.now + 0.5)
    assert origin.stats["client_gone_deferred"] == 1
    assert member in origin._gone_pending
    assert origin.stats["clients_gone"] == 0
    # Let the operation complete.  The broadcast stays deferred while
    # the peer, having read the request off the forward, still expects
    # the response (section 3.5); it fires once that is delivered.
    origin._forward = original
    origin._forward(held[0])
    world.scheduler.run_until(
        lambda: peer._filter.is_expected(held[0].key), timeout=1.0)
    assert origin.stats["clients_gone"] == peer.stats["clients_gone"] == 0
    world.run(until=world.now + 1.0)
    assert origin._gone_pending == set()
    for gateway in domain.gateways:
        assert gateway.stats["clients_gone"] == 1
        assert not any(k[:2] == member for k in gateway._filter._pending)
        assert not any(k[:2] == member for k in gateway._filter._delivered)
        assert member not in gateway._routing
    world.audit(strict=True)


def test_returning_client_voids_deferred_departure(world):
    """If the same client identifiers reconnect before the deferred
    CLIENT_GONE fires, the departure is void — a purge now would delete
    state the reissues are about to claim."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    held, original = hold_forward(gateway)
    promise = stub.call("increment", 10)
    world.run(until=world.now + 0.1)
    assert held
    # The connection drops mid-operation; the enhanced client then
    # reconnects with the same identifiers and reissues (section 3.5).
    stub.requester.connection.close()
    world.run(until=world.now + 0.5)
    # The departure was deferred at close, then voided by the reissue.
    assert gateway.stats["client_gone_deferred"] == 1
    assert gateway._gone_pending == set()
    assert gateway.stats["clients_gone"] == 0
    gateway._forward = original
    for pending in held:
        gateway._forward(pending)
    assert world.await_promise(promise, timeout=600) == 11
    world.run(until=world.now + 1.0)
    # The client is still here: no purge may ever have fired.
    assert gateway.stats["clients_gone"] == 0
    world.audit(strict=True)


def test_client_gone_from_the_gateway_a_client_left_spares_the_one_it_moved_to():
    """An enhanced client drops its idle connection and calls again: the
    gateway it left sees the close with nothing pending and multicasts
    CLIENT_GONE, while the call is already pending at the gateway the
    client moved to (its warm standby).  That gateway holds an open,
    routed connection for the id — the client moved, it is not gone —
    and must keep what it holds for it; it used to purge the fresh
    record and the route, and the call never resolved."""
    world = World(seed=7)
    domain = make_domain(world, gateways=0)
    for _ in range(2):
        domain.add_gateway().arm_admission(2, 64)
    domain.await_stable()
    group = make_counter_group(
        domain, style=ReplicationStyle.ACTIVE_WITH_VOTING, min_replicas=2)
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group)
    left, moved_to = domain.gateways
    calls = [stub.call("increment", 3 ** index) for index in range(4)]
    world.run(until=world.now + 1.5)
    stub.requester.connection.close()
    calls.append(stub.call("increment", 3 ** 4))
    world.run(until=world.now + 5.0)
    assert [call.value for call in calls] == [1, 4, 13, 40, 121]
    assert left.stats["clients_gone"] == 1
    assert moved_to.stats["clients_gone"] == 0
    assert moved_to.stats["responses_delivered"] == 1
    world.audit(strict=True)


def test_a_repeated_request_id_keeps_one_record_per_key():
    """The same request bytes arrive twice on one connection while the
    first copy is still held: the second copy's record replaces the
    first, which is let go — its admission slot and its
    ``gateway.request`` span — instead of being overwritten and leaked."""
    world = World(seed=3, trace_spans=True)
    domain = make_domain(world, gateways=0)
    gateway = domain.add_gateway()
    gateway.arm_admission(2, 64)
    domain.await_stable()
    group = ready_counter_group(domain)
    orb, stub, _ = external_client(world, domain, group, enhanced=False)
    assert world.await_promise(stub.call("increment", 1)) == 1
    held, forward = hold_forward(gateway)
    call = stub.call("increment", 10)
    world.run(until=world.now + 0.1)
    connection = orb._connections[next(iter(orb._connections))]
    connection.endpoint.send(held[0].iiop)
    world.run(until=world.now + 0.1)
    assert len(held) == 2 and gateway._own_inflight == 1
    for record in held:
        forward(record)
    assert world.await_promise(call) == 11
    world.run(until=world.now + 1.0)
    assert gateway._own_inflight == 0
    containers = world.trace_collector.select(name="gateway.request")
    assert sorted(s.attrs["outcome"] for s in containers) == [
        "delivered", "delivered", "superseded"]
    world.audit(strict=True)


def test_cancel_after_response_delivery_leaves_no_tombstone(world):
    """A CancelRequest that loses the race against the reply (the
    response was already written back) is counted and leaves nothing."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    orb, stub, _ = external_client(world, domain, group, enhanced=False)
    assert world.await_promise(stub.call("increment", 1)) == 1
    connection = orb._connections[next(iter(orb._connections))]
    connection.endpoint.send(encode_cancel_request(1))  # the completed call
    world.run(until=world.now + 0.5)
    assert gateway.stats["cancels"] == 1
    world.audit(strict=True)


def test_response_overtaking_a_reforward_closes_its_ordering_wait():
    """Forwarding an operation again (a reissue reaching a gateway that
    still holds it) opens an ordering-wait span for the copy it queues.
    If the response to the original forward is agreed first, settling
    the operation closes that span; the queued copy is a duplicate
    inside the domain and nothing else ever would."""
    world = World(seed=1234, trace_spans=True)
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=False,
                                 first_gateway_only=True)
    origin = domain.gateways[0]
    on_domain_response = origin._on_domain_response

    def reforward_then_observe(msg):
        record = dict(origin._filter.waiters()).get(
            (msg.source_group, msg.client_id, msg.op_id))
        if record is not None:
            origin._forward(record)
            assert record.order_span
        on_domain_response(msg)

    origin._on_domain_response = reforward_then_observe
    assert world.await_promise(stub.call("increment", 1)) == 1
    world.run(until=world.now + 1.0)
    assert origin.stats["requests_forwarded"] == 2
    waits = world.network.spans.select(name="totem.order.invocation")
    assert len(waits) == 2 and all(span.closed for span in waits)
    assert set(replica_counts(domain, group).values()) == {1}
    world.audit(strict=True)


def test_cancel_stat_and_counter_declared_up_front(world):
    domain = make_domain(world, gateways=1)
    gateway = domain.gateways[0]
    assert gateway.stats["cancels"] == 0
    assert gateway.metrics.get("gateway.req.cancelled").value == 0


def test_warm_passive_primary_log_is_truncated_by_its_own_updates(world):
    """The warm-passive primary multicasts a state update per operation
    and every backup truncates on install — the primary's own log must
    shrink the same way, not grow by one entry per operation."""
    domain = make_domain(world, num_hosts=4, gateways=1)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE,
                               replicas=3, min_replicas=2)
    domain.await_ready(group)
    _, stub, _ = external_client(world, domain, group)
    for _ in range(25):
        world.await_promise(stub.call("increment", 1), timeout=600)
    world.run(until=world.now + 1.0)
    primary = group.info().primary(domain.coordinator_rm().live_hosts)
    log = domain.rms[primary].replicas[group.group_id].log
    assert len(log) <= group.info().checkpoint_interval + 1
    world.audit(strict=True)


# ----------------------------------------------------------------------
# Every exit lets go of everything
# ----------------------------------------------------------------------

# How a two-way operation can end at the gateway that read it off its
# client socket -> the outcome its gateway.request container closes with.
# A cancel changes nothing there: the operation ends as it would have
# without one, and the client ORB drops the reply.
EXITS = {
    "response": "delivered",
    "style_switch": "vote_relaxed",
    "membership_shrink": "vote_relaxed",
    "unanswerable": "unservable",
    "cancel_then_response": "delivered",
    "cancel_then_unanswerable": "unservable",
    "close_then_response": "unroutable",
    "client_gone": "client_gone",
}


@pytest.mark.parametrize("windowed", [False, True],
                         ids=["no_window", "window_1_one_queued"])
@pytest.mark.parametrize("cause", list(EXITS))
def test_every_exit_lets_go_of_everything(cause, windowed):
    """Client A's operation is held in flight at its gateway and then
    ended by ``cause``.  Whatever the cause, nothing held for it
    survives at either gateway, its trace container is closed once with
    the cause's outcome, and — with an admission window of one — client
    B's queued request takes the freed slot in the same event."""
    world = World(seed=1234, trace_spans=True)
    domain = make_domain(world, gateways=0 if windowed else 2)
    if windowed:
        GatewayPool(domain, size=2, admission_window=1)
        domain.await_stable()
    group = make_counter_group(
        domain, style=ReplicationStyle.ACTIVE_WITH_VOTING, min_replicas=1)
    domain.await_ready(group)
    origin, peer = domain.gateways
    orb, stub, _ = external_client(world, domain, group, enhanced=False,
                                   host_name="a", first_gateway_only=True)
    _, stub_b, _ = external_client(world, domain, group, enhanced=False,
                                   host_name="b", first_gateway_only=True)
    assert world.await_promise(stub.call("increment", 1)) == 1
    assert world.await_promise(stub_b.call("increment", 1)) == 2
    executed = 2
    metrics, spans, scheduler = (world.metrics, world.network.spans,
                                 world.scheduler)
    admitted_before = metrics.value("gateway.adm.admitted")
    served_before = metrics.value("pool.admission.served")

    # The scheduler event in which A's slot was freed, and the one in
    # which B left the admission queue.
    freed, dequeued = [], []
    release_admission, process_request = (origin._release_admission,
                                          origin._process_request)

    def note_release(record):
        if record.admitted:
            freed.append(scheduler.events_processed)
        release_admission(record)

    def note_dequeue(*args, from_queue=False):
        if from_queue:
            dequeued.append(scheduler.events_processed)
        process_request(*args, from_queue=from_queue)

    origin._release_admission = note_release
    origin._process_request = note_dequeue

    held, forward = hold_forward(origin)
    first = stub.call("increment", 1)
    world.run(until=world.now + 0.1)
    key = held[0].key
    container = spans.select(name="gateway.request")[-1]
    closes = []
    end = spans.end

    def note_close(span_id, **attrs):
        if span_id == container.span_id:
            closes.append(attrs.get("outcome"))
        end(span_id, **attrs)

    spans.end = note_close
    second = None
    if windowed:
        second = stub_b.call("increment", 1)
        world.run(until=world.now + 0.1)
        assert len(origin._admission_queue) == 1

    def release(records):
        origin._forward = forward
        for record in records:
            forward(record)

    def hold_one_vote():
        """Two of the three voters execute but have not answered yet:
        both gateways sit on one vote of the two they need."""
        for host in slow:
            domain.rms[host]._respond = (
                lambda invocation, reply, carried=None: None)
        release(held)
        world.run(until=world.now + 0.5)
        assert dict(origin._filter.waiters()).get(key) is not None
        assert peer._filter.is_expected(key)

    placement = group.info().placement
    slow = placement[1:]
    if cause == "response":
        release(held)
        executed += 1
    elif cause == "style_switch":
        hold_one_vote()
        domain.switch_style(group, ReplicationStyle.LEADER_FOLLOWER)
        executed += 1
    elif cause == "membership_shrink":
        hold_one_vote()
        for host in slow:
            world.faults.crash_now(host)
        executed += 1
    elif cause == "unanswerable":
        for host in placement:
            world.faults.crash_now(host)
    elif cause == "cancel_then_response":
        send_cancel_for_last_request(world, orb)
        release(held)
        executed += 1
    elif cause == "cancel_then_unanswerable":
        send_cancel_for_last_request(world, orb)
        for host in placement:
            world.faults.crash_now(host)
    elif cause == "close_then_response":
        orb._connections[next(iter(orb._connections))].close()
        world.run(until=world.now + 0.2)
        assert origin._gone_pending == {key[:2]}
        release(held)
        executed += 1
    else:
        # A has left this gateway with its operation still held here
        # (never multicast), and now the peer says what a gateway says
        # when the last connection the client had to *it* closes.
        orb._connections[next(iter(orb._connections))].close()
        world.run(until=world.now + 0.2)
        peer._broadcast_client_gone(key[:2])
        world.run(until=world.now + 0.5)
        release(held[1:])
    world.run(until=world.now + 2.0)

    unanswerable = cause in ("unanswerable", "cancel_then_unanswerable")
    if cause in ("response", "style_switch", "membership_shrink"):
        assert first.value == 3
    elif cause == "unanswerable":
        assert "Transient" in str(first.error)
    elif cause in ("close_then_response", "client_gone"):
        assert isinstance(first.error, CommFailure)   # A hung up itself
    else:
        assert not first.done           # the client stopped waiting
    if unanswerable:
        # Counted once per operation, cancelled or not.
        assert origin.stats["requests_unservable"] == 1 + windowed
    for gateway in (origin, peer):
        assert gateway._gone_pending == set()
        assert not gateway._admission_queue
        assert gateway._filter.pending_count == 0
        assert gateway._own_inflight == 0
    assert container.closed
    assert container.attrs["outcome"] == EXITS[cause]
    assert container.attrs["by"] == origin.name
    assert closes == [EXITS[cause]]
    if windowed:
        # B was pulled out of the queue by the very event that freed
        # A's slot, and every admitted request gave its slot back once.
        assert dequeued == freed[:1]
        if unanswerable:
            assert "Transient" in str(second.error)
        else:
            assert second.value == executed + 1
        admitted = metrics.value("gateway.adm.admitted") - admitted_before
        assert admitted == 2 - unanswerable
        assert (metrics.value("pool.admission.served") - served_before
                == admitted)
    world.audit(strict=True)
