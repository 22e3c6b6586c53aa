"""Unit-level tests of gateway internals (bookkeeping, not scenarios)."""

import pytest

from repro import ReplicationStyle, World
from repro.core import UNUSED_CLIENT_ID
from repro.core.identifiers import external_operation_id
from repro.eternal.messages import DomainMessage, MsgKind
from repro.eternal.naming import GATEWAY_GROUP
from repro.iiop import encode_cancel_request

from tests.helpers import external_client, make_counter_group, make_domain


def test_votes_for_plain_group_is_one(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    domain.await_ready(group)
    gateway = domain.gateways[0]
    assert gateway.rm.votes_needed(group.info()) == 1


def test_votes_for_voting_group_is_majority(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain,
                               style=ReplicationStyle.ACTIVE_WITH_VOTING,
                               replicas=3)
    domain.await_ready(group)
    gateway = domain.gateways[0]
    assert gateway.rm.votes_needed(group.info()) == 2


def test_votes_shrink_with_live_replicas(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain,
                               style=ReplicationStyle.ACTIVE_WITH_VOTING,
                               replicas=3, min_replicas=1)
    domain.await_ready(group)
    world.faults.crash_now(group.info().placement[0])
    world.run(until=world.now + 0.5)
    gateway = domain.gateways[0]
    info = gateway.rm.registry.get(group.group_id)
    assert gateway.rm.votes_needed(info) == 2  # 2 live -> majority still 2


def test_connection_keeps_its_client_id_across_requests(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1))
    world.await_promise(stub.call("increment", 1))
    ids = {cid for carried in gateway._conn_clients.values()
           for cid in carried}
    assert len(ids) == 1  # one connection, one id, however many requests


def test_peer_expects_response_when_invocation_observed(world):
    """The gateway-sourced INVOCATION is the gateway group's record: a
    peer that saw it in the total order expected the response, so it
    holds the reply for a client that fails over — and nothing else."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    gateway, peer = domain.gateways
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    world.run(until=world.now + 0.5)
    key = (group.group_id, f"{layer.client_uid}#1", external_operation_id(1))
    assert peer.stats["mirrors_recorded"] == 1
    assert gateway.stats["mirrors_recorded"] == 0    # its own forward
    assert peer._filter.was_delivered(key)
    assert peer._filter.delivered(key) == gateway._filter.delivered(key)
    assert peer._pending == {}


def test_only_a_peers_first_forward_is_recorded(world):
    """``mirrors_recorded`` counts peer requests recorded, once each: a
    gateway's own forward that comes back to no pending record (the
    client cancelled meanwhile) and a repeated copy of a forward already
    recorded (a reissue's duplicate) record nothing anywhere."""
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    gateway, peer = domain.gateways
    orb, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1))
    world.run(until=world.now + 0.5)
    assert (gateway.stats["mirrors_recorded"],
            peer.stats["mirrors_recorded"]) == (0, 1)

    # Hold the next forward until the client's cancel has landed.
    forward, held, sent = gateway._forward, [], []
    gateway._forward = held.append
    stub.call("increment", 10)
    world.run(until=world.now + 0.1)
    connection = orb._connections[next(iter(orb._connections))]
    connection.endpoint.send(
        encode_cancel_request(connection.pending_request_ids()[-1]))
    world.run(until=world.now + 0.1)
    assert gateway.stats["cancels"] == 1 and gateway._pending == {}
    multicast = gateway.rm.multicast
    gateway.rm.multicast = lambda m: (sent.append(m), multicast(m))
    forward(held[0])
    world.run(until=world.now + 1.0)
    assert (gateway.stats["mirrors_recorded"],
            peer.stats["mirrors_recorded"]) == (0, 2)

    # The same forward again, after its response settled everywhere.
    for observer in (gateway, peer):
        observer.observe_delivered(sent[0])
    assert (gateway.stats["mirrors_recorded"],
            peer.stats["mirrors_recorded"]) == (0, 2)
    world.audit(strict=True)


def test_unused_client_id_responses_never_reach_gateway_routing(world):
    """Intra-domain responses (UNUSED client id) target application
    groups, not the gateway group; the gateway must stay silent."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    # Driver-originated invocation: responses go to EXTERNAL, not gateway.
    world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 0.5)
    assert gateway.stats["responses_delivered"] == 0
    assert gateway.stats["responses_unexpected"] == 0


def test_gateway_index_partitions_counter_space(world):
    """The index is the gateway's ordinal within its own domain, so the
    plain-ORB client ids (index * 1_000_000 + n) of one domain's
    gateways can never collide."""
    domain = make_domain(world, gateways=2)
    assert [gw.index for gw in domain.gateways] == [0, 1]
    other = make_domain(world, name="other", gateways=1)
    assert other.gateways[0].index == 0


def _plain_client_run():
    world = World(seed=3, trace_spans=True)
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1))
    conn_ids = sorted(endpoint.conn_id
                      for endpoints in world.tcp._endpoints_by_host.values()
                      for endpoint in endpoints)
    return (sorted(domain.gateways[0]._routing), conn_ids,
            world.trace_chrome_json())


def test_same_seeded_world_twice_in_one_process_is_identical():
    """Regression: the gateway index came from a process-global counter,
    so the second identical world assigned client id 1000001 instead of
    1 and its Chrome trace differed byte-for-byte.  TCP connection ids
    (in every endpoint repr) came from a class-level one in the same
    way; they are numbered per stack."""
    first = _plain_client_run()
    assert [cid for _, cid in first[0]] == [1]
    assert first[1] == [1, 2]       # one connection, two endpoints
    assert _plain_client_run() == first


def test_purge_client_clears_all_tables(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    gateway = domain.gateways[0]
    _, stub, layer = external_client(world, domain, group, enhanced=True)
    world.await_promise(stub.call("increment", 1))
    world.run(until=world.now + 0.2)
    member = (group.group_id, f"{layer.client_uid}#1")
    assert member in gateway._routing
    # Connected here, so a peer's CLIENT_GONE means "moved", not "gone".
    gateway._purge_client(member)
    assert member in gateway._routing
    assert any(k[:2] == member for k in gateway._filter._delivered)
    gateway._routing[member].close()
    gateway._purge_client(member)
    assert member not in gateway._routing
    assert not any(k[:2] == member for k in gateway._pending)
    assert not any(k[:2] == member for k in gateway._filter._delivered)


def test_observe_delivered_ignores_unrelated_kinds(world):
    domain = make_domain(world, gateways=1)
    gateway = domain.gateways[0]
    before = dict(gateway.stats)
    gateway.observe_delivered(DomainMessage(
        kind=MsgKind.CHECKPOINT, source_group=10, target_group=10,
        data={"state": {}, "upto_ts": 1}))
    assert gateway.stats == before


@pytest.mark.parametrize("late", ["checkpoint", "response"])
def test_late_state_after_a_switch_to_active_is_ignored(world, late):
    """A primary's state — standalone or riding its reply — sequenced
    behind a live STYLE_SWITCH out of the passive styles finds executing
    replicas: the switch's catch-up already covered that operation, so
    it must neither set them back nor re-create the log the switch
    dropped."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE)
    world.await_promise(group.invoke("increment", 3))
    domain.switch_style(group, ReplicationStyle.ACTIVE)
    world.run(until=world.now + 0.2)
    world.await_promise(group.invoke("increment", 4))
    world.run(until=world.now + 0.2)
    stale = {"state": {"count": 3}, "upto_ts": 1}
    if late == "checkpoint":
        message = DomainMessage(
            kind=MsgKind.CHECKPOINT, source_group=group.group_id,
            target_group=group.group_id, data=stale)
    else:
        message = DomainMessage(
            kind=MsgKind.RESPONSE, source_group=group.group_id,
            target_group=GATEWAY_GROUP, client_id="gone#1",
            op_id=external_operation_id(1),
            data=dict(stale, responder=group.info().placement[0]))
    for host in group.info().placement:
        rm = domain.rms[host]
        assert group.group_id not in rm.logs
        rm._dispatch(message)
        assert rm.replicas[group.group_id].servant.count == 7
        assert group.group_id not in rm.logs
    world.audit(strict=True)


def test_stopping_gateway_closes_listener(world):
    domain = make_domain(world, gateways=1)
    gateway = domain.gateways[0]
    gateway.stop()
    state = {}
    host = world.add_host("probe")
    world.tcp.connect(host, (gateway.host.name, gateway.port),
                      lambda ep: state.setdefault("ok", ep),
                      lambda exc: state.setdefault("err", exc))
    world.scheduler.run_until(lambda: state)
    assert "err" in state
