"""Leader-follower replication and live runtime style switching.

Covers the third engine family (semi-active leader-follower: every
replica executes, only the leader speaks) and the STYLE_SWITCH
quiesce-and-handoff protocol that moves a *live* group between styles
without losing or duplicating an invocation, plus the replication-
lifecycle regressions fixed alongside (``_last_primary`` purge on group
removal, fail-fast for voting groups with zero live replicas).
"""

import pytest

from repro import ReplicationStyle, World
from repro.errors import ConfigurationError, CorbaSystemException
from repro.eternal.styles import StylePolicy

from tests.helpers import (
    SLOW_TOTEM,
    external_client,
    make_bank,
    make_counter_group,
    make_domain,
    replica_counts,
    transfer_then_read,
)


# ======================================================================
# Style property matrix (the is_active split)
# ======================================================================

def test_style_property_matrix():
    """Each engine decision has its own named property; the old
    ``is_active`` conflation (executes-everywhere vs responds-from-all)
    is gone."""
    S = ReplicationStyle
    matrix = {
        # style:            (executes_everywhere, responds_from_all,
        #                    is_semi_active, is_passive, needs_voting,
        #                    has_state, any_copy_suffices, loads_backups)
        S.STATELESS:         (True, True, False, False, False, False, True,
                              False),
        S.COLD_PASSIVE:      (False, False, False, True, False, True, False,
                              False),
        S.WARM_PASSIVE:      (False, False, False, True, False, True, False,
                              True),
        S.ACTIVE:            (True, True, False, False, False, True, True,
                              False),
        S.ACTIVE_WITH_VOTING: (True, True, False, False, True, True, False,
                               False),
        S.LEADER_FOLLOWER:   (True, False, True, False, False, True, False,
                              False),
    }
    for style, expected in matrix.items():
        got = (style.executes_everywhere, style.responds_from_all,
               style.is_semi_active, style.is_passive, style.needs_voting,
               style.has_state, style.any_copy_suffices,
               style.loads_backups)
        assert got == expected, style
    assert not hasattr(S.ACTIVE, "is_active")


def test_warm_passive_checkpoints_after_every_operation():
    """WARM_PASSIVE is COLD_PASSIVE with an interval of one, whatever
    interval the group was created with."""
    from repro.eternal.registry import GroupInfo
    info = GroupInfo(10, "G", "Counter", "f", ReplicationStyle.COLD_PASSIVE,
                     ("h0",), checkpoint_interval=5)
    assert info.checkpoint_every == 5
    info.style = ReplicationStyle.WARM_PASSIVE
    assert info.checkpoint_every == 1


def test_leader_follower_requires_two_replicas():
    from repro.eternal.properties import FaultToleranceProperties
    with pytest.raises(ConfigurationError):
        FaultToleranceProperties(
            replication_style=ReplicationStyle.LEADER_FOLLOWER,
            initial_number_replicas=1, minimum_number_replicas=1)
    # Two replicas is the legal floor.
    FaultToleranceProperties(
        replication_style=ReplicationStyle.LEADER_FOLLOWER,
        initial_number_replicas=2, minimum_number_replicas=2)


def test_style_policy_validation():
    with pytest.raises(ValueError):
        StylePolicy(demote_to=ReplicationStyle.STATELESS)
    with pytest.raises(ValueError):
        StylePolicy(min_dwell_s=-1.0)


# ======================================================================
# Leader-follower steady state and failover
# ======================================================================

def test_lf_every_replica_executes_but_one_responds(world):
    """Semi-active semantics: hot state everywhere, one response on the
    ring — no duplicates for the gateway to suppress."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain,
                               style=ReplicationStyle.LEADER_FOLLOWER,
                               replicas=3)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    for i in range(3):
        assert world.await_promise(stub.call("increment", 1)) == i + 1
    world.run(until=world.now + 0.3)
    assert set(replica_counts(domain, group).values()) == {3}
    assert gateway.stats["responses_delivered"] == 3
    assert gateway.stats["duplicates_suppressed"] == 0
    # Two followers withheld their response for each of the three ops.
    assert world.metrics.value("rm.style.responses_withheld") == 6


def test_lf_leader_crash_promotes_without_replay(world):
    """Followers are hot, so a leader crash costs a re-transmission, not
    a log replay."""
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain,
                               style=ReplicationStyle.LEADER_FOLLOWER,
                               replicas=3, min_replicas=2)
    for _ in range(5):
        world.await_promise(group.invoke("increment", 1))
    info = group.info()
    leader = info.primary(domain.coordinator_rm().live_hosts)
    world.faults.crash_now(leader)
    world.run(until=world.now + 1.5)
    assert world.await_promise(group.invoke("increment", 1)) == 6
    counts = replica_counts(domain, group)
    assert leader not in counts
    assert set(counts.values()) == {6}
    assert world.metrics.value("rm.style.promotions") >= 1
    assert world.metrics.value("fault.recovery.replays") == 0


def test_lf_nested_calls_follow_leader_ordering(world):
    """Only the leader multicasts each nested INVOCATION; followers
    verify the identifiers they derived themselves against it on
    delivery (zero mismatches in a deterministic domain)."""
    from repro.apps import (
        ACCOUNT_INTERFACE,
        AccountServant,
        LEDGER_INTERFACE,
        LedgerServant,
        TRANSFER_INTERFACE,
        TransferAgentServant,
    )
    domain = make_domain(world, num_hosts=4)
    lf = ReplicationStyle.LEADER_FOLLOWER
    accounts = domain.create_group("Accounts", ACCOUNT_INTERFACE,
                                   AccountServant, style=lf)
    ledger = domain.create_group("Ledger", LEDGER_INTERFACE, LedgerServant,
                                 style=lf)
    agent = domain.create_group("Transfers", TRANSFER_INTERFACE,
                                TransferAgentServant, style=lf)
    world.await_promise(accounts.invoke("deposit", "alice", 100))
    assert world.await_promise(
        agent.invoke("transfer", "alice", "bob", 40)) == 40
    world.run(until=world.now + 0.3)
    assert world.await_promise(accounts.invoke("balance", "alice")) == 60
    assert world.await_promise(ledger.invoke("entries")) == 1
    # Three nested INVOCATIONs from the leader, each checked by every
    # follower's host on delivery.
    followers = len(agent.info().placement) - 1
    assert world.metrics.value("rm.style.order.followed") == 3 * followers
    assert world.metrics.value("rm.style.order.mismatch") == 0


def test_lf_order_check_across_a_live_switch_under_load(world):
    """Every copy of a nested INVOCATION sequenced after the group's
    switch to LEADER_FOLLOWER is held to the followers' own waits — the
    leader's, and the ones replicas queued under ACTIVE just before the
    cut (sent by whichever replica won the ring, checked at its own
    processor too).  None mismatches."""
    from repro.apps import (
        ACCOUNT_INTERFACE,
        AccountServant,
        LEDGER_INTERFACE,
        LedgerServant,
        TRANSFER_INTERFACE,
        TransferAgentServant,
    )
    from repro.eternal.messages import MsgKind
    domain = make_domain(world, num_hosts=4)
    accounts = domain.create_group("Accounts", ACCOUNT_INTERFACE,
                                   AccountServant)
    domain.create_group("Ledger", LEDGER_INTERFACE, LedgerServant)
    agent = domain.create_group("Transfers", TRANSFER_INTERFACE,
                                TransferAgentServant)
    world.await_promise(accounts.invoke("deposit", "alice", 100))
    order = []   # (sequence number, sender, message) as one member saw it
    next(iter(domain.members.values())).on_deliver(
        lambda seq, sender, payload: order.append((seq, sender, payload)))
    promises = [agent.invoke("transfer", "alice", "bob", 1)
                for _ in range(6)]
    # Queued right behind the batch: the six transfers execute under
    # ACTIVE, and every nested copy they queue lands behind the switch.
    domain.switch_style(agent, ReplicationStyle.LEADER_FOLLOWER)
    promises += [agent.invoke("transfer", "alice", "bob", 1)
                 for _ in range(6)]
    world.run_until_done(promises, timeout=240)
    assert world.await_promise(accounts.invoke("balance", "bob")) == 12
    world.run(until=world.now + 0.3)
    cut = next(seq for seq, _, m in order if m.kind is MsgKind.STYLE_SWITCH)
    after = [sender for seq, sender, m in order
             if seq > cut and m.kind is MsgKind.INVOCATION
             and m.source_group == agent.group_id]
    leader = agent.info().placement[0]
    assert any(sender != leader for sender in after)   # ACTIVE-era copies
    assert any(sender == leader for sender in after)   # the leader's own
    followers = len(agent.info().placement) - 1
    assert world.metrics.value("rm.style.order.followed") \
        == followers * len(after)
    assert world.metrics.value("rm.style.order.mismatch") == 0
    world.audit(strict=True)


# ======================================================================
# Lifecycle bugfixes
# ======================================================================

def test_last_primary_purged_on_group_remove(world):
    """Removing a group must purge its ``_last_primary`` entry, so the
    ``rm.last_primary`` audit entry returns to its floor (one entry per
    registry group)."""
    domain = make_domain(world)
    group = make_counter_group(domain)
    world.await_promise(group.invoke("increment", 1))
    gid = group.group_id
    for rm in domain.rms.values():
        assert gid in rm._last_primary
    world.await_promise(domain.invoke(
        "EternalReplicationManager", "remove_object", [group.name]))
    world.run(until=world.now + 0.5)
    for rm in domain.rms.values():
        assert gid not in rm._last_primary
        assert len(rm._last_primary) <= len(rm.registry)
    world.audit(strict=True)


def test_voting_group_losing_all_replicas_fails_fast(world):
    """Killing every replica of a voting group mid-invocation must fail
    the in-flight request with TRANSIENT (not hang it forever), and
    subsequent requests are failed fast at the gateway."""
    domain = make_domain(world, gateways=1, totem_config=SLOW_TOTEM)
    group = make_counter_group(domain,
                               style=ReplicationStyle.ACTIVE_WITH_VOTING,
                               replicas=3, min_replicas=1)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    assert world.await_promise(stub.call("increment", 1)) == 1

    # Mid-invocation: the request is on its way in when the group dies.
    doomed = stub.call("increment", 1)
    world.run(until=world.now + 0.01)
    for host in group.info().placement:
        world.faults.crash_now(host)
    with pytest.raises(CorbaSystemException) as exc:
        world.await_promise(doomed, timeout=600)
    assert "Transient" in str(exc.value)

    # Fresh requests are refused immediately (no pending record pinned).
    world.run(until=world.now + 1.0)
    with pytest.raises(CorbaSystemException) as exc:
        world.await_promise(stub.call("increment", 1), timeout=600)
    assert "Transient" in str(exc.value)
    assert world.metrics.value("gateway.req.unservable") >= 1
    assert not gateway._pending
    assert gateway._filter.pending_count == 0


# ======================================================================
# Live runtime switching
# ======================================================================

def test_live_switch_active_to_lf_and_back_loses_nothing(world):
    """Traffic straddling two style switches: every invocation executes
    exactly once (the returned counter values are a complete
    permutation) and exactly one reply reaches the client per request."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain, replicas=3)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    promises = [stub.call("increment", 1) for _ in range(10)]
    world.run(until=world.now + 0.02)
    domain.switch_style(group, ReplicationStyle.LEADER_FOLLOWER)
    promises += [stub.call("increment", 1) for _ in range(10)]
    world.run(until=world.now + 0.02)
    domain.switch_style(group, ReplicationStyle.ACTIVE)
    promises += [stub.call("increment", 1) for _ in range(10)]
    world.run_until_done(promises, timeout=240)
    values = [p.value for p in promises]
    assert sorted(values) == list(range(1, 31))  # exactly once, no gaps
    world.run(until=world.now + 0.3)
    assert set(replica_counts(domain, group).values()) == {30}
    assert gateway.stats["responses_delivered"] + \
        gateway.stats["votes_relaxed"] == 30
    assert world.metrics.value("rm.style.switches") > 0
    info = group.info()
    assert info.style is ReplicationStyle.ACTIVE
    assert info.style_epoch == 2


def test_live_switch_voting_to_lf_relaxes_stranded_quorums(world):
    """Dropping the voting requirement mid-flight must not strand
    expectations registered with the old majority."""
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain,
                               style=ReplicationStyle.ACTIVE_WITH_VOTING,
                               replicas=3)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    promises = [stub.call("increment", 1) for _ in range(8)]
    world.run(until=world.now + 0.03)
    domain.switch_style(group, ReplicationStyle.LEADER_FOLLOWER)
    promises += [stub.call("increment", 1) for _ in range(8)]
    world.run_until_done(promises, timeout=240)
    assert sorted(p.value for p in promises) == list(range(1, 17))
    world.run(until=world.now + 0.3)
    assert set(replica_counts(domain, group).values()) == {16}
    # Exactly one reply per request, whichever path flushed it.
    assert gateway.stats["responses_delivered"] + \
        gateway.stats["votes_relaxed"] == 16
    # The response partition invariant survives the relaxation.
    m = world.metrics
    assert m.value("gateway.resp.received") == (
        m.value("gateway.dup.suppressed")
        + m.value("gateway.resp.unexpected")
        + m.value("gateway.resp.vote_pending")
        + m.value("gateway.resp.delivered")
        + m.value("gateway.resp.unroutable"))


def test_passive_to_lf_switch_catches_backups_up(world):
    """Passive -> executing switch: backups silently replay their log
    suffix to the primary's state before executing new traffic."""
    domain = make_domain(world)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE,
                               replicas=3)
    for _ in range(4):
        world.await_promise(group.invoke("increment", 1))
    domain.switch_style(group, ReplicationStyle.LEADER_FOLLOWER)
    world.run(until=world.now + 0.5)
    assert world.await_promise(group.invoke("increment", 1)) == 5
    world.run(until=world.now + 0.3)
    # Every replica is hot now, at the same state.
    assert set(replica_counts(domain, group).values()) == {5}


def test_cold_to_warm_switch_then_primary_crash_keeps_checkpointed_ops(world):
    """A warm backup is promoted without restoring anything, so the
    switch into WARM_PASSIVE loads each cold backup's servant with its
    checkpoint (six operations here); promotion then replays only the
    seventh."""
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, style=ReplicationStyle.COLD_PASSIVE,
                               replicas=3, min_replicas=2,
                               checkpoint_interval=3)
    for _ in range(7):
        world.await_promise(group.invoke("increment", 1))
    domain.switch_style(group, ReplicationStyle.WARM_PASSIVE)
    world.run(until=world.now + 0.2)
    world.faults.crash_now(group.info().placement[0])
    assert world.await_promise(group.invoke("increment", 1),
                               timeout=600) == 8
    world.run(until=world.now + 0.2)
    assert set(replica_counts(domain, group).values()) == {8}


def test_warm_to_active_switch_after_out_of_order_completions(world):
    """``transfers_done`` completes before the ``transfer`` ordered ahead
    of it, so the transfer's checkpoint carries the newer state under the
    lower timestamp and its log install is refused.  A warm backup's
    servant took both checkpoints as they came and is current: catching
    up for the switch must not set it back to the log's checkpoint."""
    domain = make_domain(world, num_hosts=4)
    _, _, agent = make_bank(domain, ReplicationStyle.WARM_PASSIVE)
    transfer_then_read(world, agent)
    domain.switch_style(agent, ReplicationStyle.ACTIVE)
    world.run(until=world.now + 0.3)
    assert replica_counts(domain, agent, "completed") == {
        host: 1 for host in agent.info().placement}
    assert world.await_promise(agent.invoke("transfers_done")) == 1


def test_switch_rejects_stateless_endpoints(world):
    domain = make_domain(world)
    group = make_counter_group(domain)
    stateless = make_counter_group(domain, name="Stateless",
                                   style=ReplicationStyle.STATELESS)
    with pytest.raises(ConfigurationError):
        domain.switch_style(group, ReplicationStyle.STATELESS)
    with pytest.raises(ConfigurationError):
        domain.switch_style(stateless, ReplicationStyle.ACTIVE)


# ======================================================================
# Chaos: leader killed around the switch point
# ======================================================================

def test_mid_switch_leader_kill_is_exactly_once():
    """The hardest interleaving: a switch to leader-follower with the
    about-to-be leader killed while traffic is in flight.  Exactly one
    response per invocation, proven from the gateway's duplicate-
    suppression counters and the causal trace (one egress per request
    container), not from logs."""
    world = World(seed=4242, trace_spans=True)
    domain = make_domain(world, gateways=1, totem_config=SLOW_TOTEM)
    group = make_counter_group(domain, replicas=3, min_replicas=2)
    domain.await_ready(group)
    gateway = domain.gateways[0]
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    promises = [stub.call("increment", 1) for _ in range(12)]
    world.run(until=world.now + 0.02)
    domain.switch_style(group, ReplicationStyle.LEADER_FOLLOWER)
    world.run(until=world.now + 0.05)  # switch is on the ring, traffic live
    leader = group.info().primary(domain.coordinator_rm().live_hosts)
    world.faults.crash_now(leader)
    world.run_until_done(promises, timeout=600)
    values = [p.value for p in promises]
    assert sorted(values) == list(range(1, 13))  # nothing lost or doubled
    world.run(until=world.now + 1.0)
    # Counter evidence: one client delivery per request; every extra
    # response copy (voting-era replicas, promotion resends) was
    # suppressed, never written to the socket.
    assert gateway.stats["responses_delivered"] + \
        gateway.stats["votes_relaxed"] == 12
    m = world.metrics
    assert m.value("gateway.resp.received") == (
        m.value("gateway.dup.suppressed")
        + m.value("gateway.resp.unexpected")
        + m.value("gateway.resp.vote_pending")
        + m.value("gateway.resp.delivered")
        + m.value("gateway.resp.unroutable"))
    # Trace evidence: every request container saw exactly one egress.
    spans = world.network.spans
    containers = spans.select(name="gateway.request")
    assert len(containers) == 12
    for container in containers:
        egresses = [s for s in spans.select(trace_id=container.trace_id,
                                            name="gateway.egress")]
        assert len(egresses) == 1, container.trace_id
    surviving = replica_counts(domain, group)
    assert set(surviving.values()) == {12}


# ======================================================================
# Adaptive style management
# ======================================================================

def test_style_manager_demotes_under_shed_and_promotes_under_faults(world):
    """The StylePolicy loop: admission sheds demote an ACTIVE group to
    leader-follower; a fault-rate spike promotes it back."""
    domain = make_domain(world)
    gw = domain.add_gateway(port=2809, admission_window=1,
                            admission_queue_limit=2)
    domain.await_stable()
    group = make_counter_group(domain, replicas=3)
    policy = StylePolicy(demote_shed_rate=1.0, demote_latency_s=1000.0,
                         promote_fault_rate=0.5, min_dwell_s=0.0)
    domain.enable_adaptive_styles(policy=policy, groups=[group],
                                  tick_interval=0.05)
    _, stub, _ = external_client(world, domain, group, enhanced=False)
    # Flood far past the admission window: sheds drive the demotion.
    flood = [stub.call("increment", 1) for _ in range(30)]
    world.run_until_done(flood, timeout=240)
    assert gw.stats["requests_shed"] > 0
    world.scheduler.run_until(
        lambda: group.info().style is ReplicationStyle.LEADER_FOLLOWER,
        timeout=10.0)
    assert group.info().style is ReplicationStyle.LEADER_FOLLOWER
    # Kill the group's leader: the fault spike promotes it back to the
    # remembered baseline style.
    leader = group.info().primary(domain.coordinator_rm().live_hosts)
    world.faults.crash_now(leader)
    world.scheduler.run_until(
        lambda: group.info().style is ReplicationStyle.ACTIVE,
        timeout=15.0)
    assert group.info().style is ReplicationStyle.ACTIVE
    # The demoted/promoted group still serves correctly afterwards.
    world.run(until=world.now + 1.0)
    assert world.await_promise(group.invoke("value")) >= 0
