"""The Eternal Replication Mechanisms (paper Figure 2, sections 2.2, 3.2).

One :class:`ReplicationMechanisms` instance runs on every processor of
a fault tolerance domain, layered on the local Totem member.  It:

* hosts the local replicas of application (and manager) object groups;
* dispatches totally-ordered delivered invocations to those replicas,
  detecting and suppressing duplicate invocations via the
  (source group, client id, operation id) key and caching responses so
  duplicates can be answered without re-execution;
* multicasts replica responses back to the invoking group or gateway,
  withdrawing its own still-queued copy when a sibling replica's
  identical one is delivered first (sender-side duplicate suppression);
* drives nested invocations (generator servants) with deterministic
  Figure 6 identifiers;
* implements the replication styles (active, active with voting, warm
  and cold passive, stateless), including primary election, passive
  checkpoints riding the primary's reply (after every operation for
  warm passive, periodic for cold), log replay on failover, and state
  transfer to joining replicas;
* maintains the group registry from idempotent control messages so all
  processors share an identical directory;
* hands gateway-targeted traffic to an attached gateway (the gateway is
  infrastructure, not a CORBA object — paper section 3).

Determinism note: delivered messages are shared in-memory across hosts
by the simulated transport; the only mutation ever performed on one is
stamping ``timestamp`` with the Totem sequence number, which every
receiver sets to the same value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Union)

from ..core.duplicates import DuplicateSuppressor
from ..core.identifiers import (
    OperationId,
    UNUSED_CLIENT_ID,
    dedup_key,
    external_operation_id,
)
from ..errors import ConfigurationError, TransientError
from ..iiop.giop import RequestMessage, decode_reply, encode_request
from ..orb.dispatch import (
    decode_result,
    encode_arguments,
    reply_for_exception,
    reply_for_result,
)
from ..orb.idl import Interface, Operation
from ..orb.servant import NestedCall, Servant
from ..sim.host import Host, Process
from ..sim.trace import Tracer
from ..sim.world import Promise
from ..totem.member import Queued, TotemMember
from .execution import Execution, Outcome
from .logging_recovery import GroupLog
from .messages import DomainMessage, MsgKind
from .naming import EXTERNAL_GROUP, GATEWAY_GROUP, make_object_key
from .registry import GroupInfo, GroupRegistry
from .styles import ReplicationStyle

# Bound on the per-group duplicate-detection table.  Entries are evicted
# FIFO; by the time 100k newer operations have been ordered after an
# invocation, any legitimate reissue of it has long been answered.
# (Production Totem GCs at message stability instead; a size bound keeps
# the simulation honest about memory without that machinery.)
DEDUP_TABLE_LIMIT = 100_000


@dataclass
class ReplicaRecord:
    """One local replica of a group."""

    group_id: int
    servant: Servant
    version: int = 1
    ready: bool = True                 # state installed (or nothing to install)
    buffered: List[DomainMessage] = field(default_factory=list)
    since_checkpoint: int = 0          # completions since the last checkpoint


@dataclass
class _InvocationRecord:
    """Dedup-table entry for one (source, client, op) invocation."""

    status: str                        # "executing" | "done"
    response_iiop: Optional[bytes] = None
    response_expected: bool = True


@dataclass
class _Waiter:
    """Someone on this processor awaiting a replicated response: an
    ambassador invocation (``promise``) or a local execution suspended
    on a nested call (``execution``, resumed under ``original``)."""

    op: Operation                      # for result decoding
    promise: Optional[Promise] = None
    execution: Optional[Execution] = None
    original: Optional[DomainMessage] = None   # the parent invocation
    # The multicast-ready nested invocation (None for egress waits).  A
    # leader-follower promotion re-multicasts it: the dead leader may
    # have crashed before issuing it, and targets deduplicate anyway.
    message: Optional[DomainMessage] = None


class ReplicationMechanisms(Process):
    """Per-processor replication engine of the Eternal system."""

    def __init__(
        self,
        host: Host,
        totem: TotemMember,
        domain_name: str,
        interfaces: Dict[str, Interface],
        factories: Dict[str, Callable[[], Servant]],
        tracer: Optional[Tracer] = None,
        synced: bool = True,
    ) -> None:
        super().__init__(host, f"rm@{host.name}")
        self.totem = totem
        self.domain_name = domain_name
        self.interfaces = interfaces
        self.factories = factories
        self.tracer = tracer or Tracer(enabled=False)
        # Causal-trace collector (world-shared); hot paths check
        # ``.enabled`` before doing any span work.
        self._span_collector = host.network.spans

        self.registry = GroupRegistry()
        self.replicas: Dict[int, ReplicaRecord] = {}
        self.logs: Dict[int, GroupLog] = {}
        self.live_hosts: Tuple[str, ...] = ()
        self._prev_members: Tuple[str, ...] = ()
        self._last_primary: Dict[int, Optional[str]] = {}

        # Registry synchronization: processors that join a running domain
        # (new gateways, recovered hosts) buffer deliveries until an
        # incumbent sends them the directory snapshot.
        self.synced = synced
        self._presync_buffer: List[DomainMessage] = []

        # Duplicate invocation detection: group -> dedup key -> record.
        self._invocations_seen: Dict[int, Dict[Tuple, _InvocationRecord]] = {}
        # Duplicate response suppression / voting for nested + external calls.
        self._response_filter = DuplicateSuppressor()
        # Everyone waiting on a response, by the filter's key: (responder
        # group, invoking group id, op id) for a suspended execution,
        # (responder group, client uid, op id) for an ambassador call —
        # group ids are ints and client uids strings, so never equal.
        self._waiting: Dict[Tuple, _Waiter] = {}
        # Leader-follower followers' withheld responses, group -> parent
        # dedup key -> original invocation.  An entry retires when the
        # leader's response for the same operation is delivered in total
        # order; on promotion the survivor resends the cached replies.
        self._lf_unacked: Dict[int, Dict[Tuple, DomainMessage]] = {}
        # Our own RESPONSE / nested INVOCATION copies still in the Totem
        # send queue, by DomainMessage.copy_key(), for groups whose
        # style says any copy suffices.  Consulted in _on_deliver.
        self._outbound_copies: Dict[Tuple, Queued] = {}

        self._gateway = None               # attached repro.core.gateway.Gateway
        self._egress = None                # attached cross-domain egress client
        # reprolint: disable=AUD001 -- listener list, fixed at wiring time
        self._membership_listeners: List[Callable[[Tuple[str, ...]], None]] = []
        # reprolint: disable=AUD001 -- listener list, fixed at wiring time
        self._replica_ready_listeners: List[Callable[[int, str, int], None]] = []

        # reprolint: disable=AUD001 -- fixed key set, bounded by construction
        self.stats = {
            "invocations_executed": 0,
            "invocations_duplicate": 0,
            "responses_resent": 0,
            "responses_delivered": 0,
            "responses_suppressed": 0,
            "checkpoints": 0,
            "state_updates": 0,
            "state_transfers_sent": 0,
            "state_transfers_received": 0,
            "replays": 0,
            "responses_withheld": 0,
            "style_switches": 0,
        }

        # World-shared metrics, aggregated across all processors.
        m = self.metrics
        self._m_invocations = m.counter("eternal.invocations.executed")
        self._m_dup_invocations = m.counter("eternal.invocations.duplicate")
        self._m_state_updates = m.counter("eternal.state.updates")
        self._m_copies_queued = m.counter("rm.copies.queued")
        self._m_copies_withdrawn = m.counter("rm.copies.withdrawn")
        self._m_checkpoints_sent = m.counter("eternal.checkpoint.multicasts")
        self._m_replays = m.counter("fault.recovery.replays")
        self._m_failovers = m.counter("fault.failover.count")
        self._m_transfer_bytes = m.histogram("fault.state_transfer.bytes", unit="B")
        self._m_recovery_duration = m.histogram("fault.recovery.duration", unit="s")
        # Leader-follower / style-switch counters (`rm.style.*`,
        # `rm.invoke.unservable`) are looked up by name where they are
        # incremented, hence created on first use: a world that never
        # uses the semi-active engine keeps byte-identical metric
        # snapshots (the same contract the audit gauges honour).

        # Exhaustive kind -> handler table for :meth:`_dispatch` (hot
        # path, and the SM001 contract: adding a MsgKind without wiring
        # a handler here fails lint instead of falling through).
        # reprolint: disable=AUD001 -- fixed message-kind table, never grows
        self._kind_dispatch = {
            MsgKind.INVOCATION: self._on_invocation,
            MsgKind.RESPONSE: self._on_response,
            MsgKind.GROUP_ANNOUNCE: self._apply_group_announce,
            MsgKind.GROUP_REMOVE: self._apply_group_remove,
            MsgKind.ADD_REPLICA: self._apply_add_replica,
            MsgKind.REMOVE_REPLICA: self._apply_remove_replica,
            MsgKind.REPLICA_READY: self._on_replica_ready_delivered,
            MsgKind.CHECKPOINT: self._apply_checkpoint,
            MsgKind.STATE_TRANSFER: self._apply_state_transfer,
            MsgKind.CLIENT_GONE: self._on_gateway_kind,
            MsgKind.STYLE_SWITCH: self._apply_style_switch,
            MsgKind.REGISTRY_SYNC: self._on_registry_sync_delivered,
            MsgKind.REGISTRY_SYNC_REQUEST: self._on_registry_sync_request,
        }

        self._register_audit()

        totem.on_deliver(self._on_deliver)
        totem.on_membership(self._on_membership)
        self.running = True
        if not synced:
            self.soon(self._request_sync)

    def _request_sync(self) -> None:
        """Ask incumbents for the directory snapshot; retry until synced."""
        if self.synced or not self.alive:
            return
        self.multicast(DomainMessage(
            kind=MsgKind.REGISTRY_SYNC_REQUEST, source_group=0, target_group=0,
            data={"requester": self.host.name},
        ))
        self.after(0.05, self._request_sync)

    # ==================================================================
    # Wiring
    # ==================================================================

    def attach_gateway(self, gateway: Any) -> None:
        """Attach the co-located gateway (receives gateway-group traffic)."""
        self._gateway = gateway

    def attach_egress(self, egress: Any) -> None:
        """Attach the cross-domain egress client (section "Fig. 1" path)."""
        self._egress = egress

    def on_membership_change(self, fn: Callable[[Tuple[str, ...]], None]) -> None:
        self._membership_listeners.append(fn)

    def on_replica_ready(self, fn: Callable[[int, str, int], None]) -> None:
        """``fn(group_id, host_name, version)`` on REPLICA_READY delivery."""
        self._replica_ready_listeners.append(fn)

    # ==================================================================
    # Outbound multicast helpers
    # ==================================================================

    def multicast(self, message: DomainMessage) -> None:
        self.totem.multicast(message, size=message.size_hint())

    def _multicast_copy(self, message: DomainMessage) -> None:
        """Multicast a local replica's RESPONSE or nested INVOCATION:
        a message every replica of the sending group
        (``message.source_group``) computes identically.

        Where any one copy serves the receiver, ours is remembered
        while it waits for the token so that :meth:`_on_deliver` can
        withdraw it if a sibling's copy is agreed first."""
        entry = self.totem.multicast(message, size=message.size_hint())
        info = self.registry.get(message.source_group)
        if info is not None and info.style.any_copy_suffices:
            self._m_copies_queued.inc()
            self._outbound_copies[message.copy_key()] = entry

    def _log_for(self, group_id: int) -> GroupLog:
        """The group's invocation log, created metrics-wired on demand."""
        log = self.logs.get(group_id)
        if log is None:
            log = self.logs[group_id] = GroupLog(group_id, metrics=self.metrics)
        return log

    def _should_respond(self, info: GroupInfo) -> bool:
        """Does this replica multicast the response it computed?

        Styles that respond from every replica always do; otherwise only
        the primary/leader speaks (passive primaries and leader-follower
        leaders — followers execute for hot state but stay silent).
        """
        if info.style.responds_from_all:
            return True
        return info.primary(self.live_hosts) == self.host.name

    def _respond(self, invocation: DomainMessage, reply_iiop: bytes,
                 carried: Optional[Dict[str, Any]] = None) -> None:
        """Multicast the reply; ``carried`` is what a passive primary
        owes its backups for this operation (:meth:`_post_execution`),
        applied in :meth:`_on_response` at the reply's own position."""
        data: Dict[str, Any] = {"responder": self.host.name}
        if carried:
            data.update(carried)
            self.metrics.counter("eternal.state.carried").inc()
        response = DomainMessage(
            kind=MsgKind.RESPONSE,
            source_group=invocation.target_group,
            target_group=invocation.source_group,
            client_id=invocation.client_id,
            op_id=invocation.op_id,
            iiop=reply_iiop,
            data=data,
        )
        tr = invocation.trace
        if tr is not None and self._span_collector.enabled:
            # The response's ordering wait: opened here at multicast,
            # closed by whichever receiver observes the delivery first
            # (the span id rides out-of-band on the message).
            response.trace = tr
            response._trace_order = self._span_collector.start(
                tr[0], "totem.order.response", parent=tr[1],
                source=self.name, responder=self.host.name)
        self._multicast_copy(response)

    # ==================================================================
    # Delivery entry point
    # ==================================================================

    def _on_deliver(self, seq: int, sender: str, payload: Any) -> None:
        if not isinstance(payload, DomainMessage):
            return
        payload.timestamp = seq  # same value stamped by every receiver
        mine = (self._outbound_copies.pop(payload.copy_key(), None)
                if self._outbound_copies else None)
        if (mine is not None and mine.payload is not payload
                and self.totem.withdraw(mine)):
            # A sibling replica's identical copy was agreed first, here
            # and at every other live member: ours would only be thrown
            # away on receipt, so it never takes a sequence number.
            # (Delivery of our own copy just retires the entry; a copy
            # already sequenced crosses on the ring and the receiver's
            # DuplicateSuppressor drops it, as it always has.)
            self._m_copies_withdrawn.inc()
            if mine.payload._trace_order:
                self._span_collector.end(mine.payload._trace_order,
                                         outcome="withdrawn")
        if not self.synced:
            if payload.kind is MsgKind.REGISTRY_SYNC:
                self._apply_registry_sync(payload)
            else:
                self._presync_buffer.append(payload)
            return
        self._dispatch(payload)

    def _dispatch(self, payload: DomainMessage) -> None:
        self._kind_dispatch[payload.kind](payload)
        # Gateways observe their own group's forwarded invocations and all
        # gateway-coordination traffic.
        if self._gateway is not None:
            self._gateway.observe_delivered(payload)

    # ==================================================================
    # Invocations
    # ==================================================================

    def _on_invocation(self, msg: DomainMessage) -> None:
        if msg.source_group in self.replicas:
            self._check_leader_order(msg)
        record = self.replicas.get(msg.target_group)
        if record is None:
            return  # not hosted here
        info = self.registry.get(msg.target_group)
        if info is None:
            return
        if not record.ready:
            record.buffered.append(msg)
            return
        self._process_invocation(msg, record, info)

    def _process_invocation(self, msg: DomainMessage, record: ReplicaRecord,
                            info: GroupInfo) -> None:
        key = dedup_key(msg.source_group, msg.client_id, msg.op_id)
        seen = self._invocations_seen.setdefault(msg.target_group, {})
        existing = seen.get(key)
        tr = msg.trace if self._span_collector.enabled else None
        if existing is not None:
            self.stats["invocations_duplicate"] += 1
            self._m_dup_invocations.inc()
            if tr is not None:
                self._span_collector.instant(
                    tr[0], "rm.duplicate", parent=tr[1], source=self.name,
                    status=existing.status)
            if (existing.status == "done"
                    and existing.response_iiop is not None
                    and self._should_respond(info)):
                # Re-send the cached response: the duplicate may stem from
                # a reinvocation whose original response was lost with a
                # crashed gateway or primary (sections 3.3-3.5).
                # Leader-follower followers hold the same cache but stay
                # silent unless promoted.
                self.stats["responses_resent"] += 1
                self._respond(msg, existing.response_iiop)
            return
        if tr is not None:
            self._span_collector.instant(
                tr[0], "rm.delivery", parent=tr[1], source=self.name,
                seq=msg.timestamp)
        # Record before executing so re-entrant deliveries see it.
        request = msg.request()
        seen[key] = _InvocationRecord(
            status="executing", response_expected=request.response_expected)
        while len(seen) > DEDUP_TABLE_LIMIT:
            seen.pop(next(iter(seen)))  # FIFO eviction, bounded memory

        style = info.style
        i_execute = (style.executes_everywhere
                     or info.primary(self.live_hosts) == self.host.name)
        if style.is_passive:
            self._log_for(msg.target_group).record_invocation(msg)
        if not i_execute:
            return  # passive backup: logged only
        self._execute(msg, record, info, request, key)

    def _register_audit(self) -> None:
        """Declare this processor's stateful collections to the world
        audit scope (see :mod:`repro.obs.audit`)."""
        scope, owner = self.audit, self.name

        def alive() -> bool:
            return self.alive

        def log_floor() -> int:
            # Each logged group may legitimately hold up to one
            # checkpoint interval of suffix (plus the op that triggered
            # the in-flight checkpoint); anything beyond that was never
            # truncated.
            total = 0
            for group_id in self.logs:
                info = self.registry.get(group_id)
                total += 1 + (info.checkpoint_interval
                              if info is not None else 10)
            return total

        scope.register("rm.logs",
                       lambda: sum(len(log) for log in self.logs.values()),
                       floor=log_floor, owner=owner, active=alive,
                       gauge="rm.state.log_entries")
        scope.register("rm.dedup",
                       lambda: sum(len(t)
                                   for t in self._invocations_seen.values()),
                       floor=lambda: (DEDUP_TABLE_LIMIT
                                      * max(1, len(self._invocations_seen))),
                       owner=owner, active=alive,
                       gauge="rm.state.dedup_entries")
        scope.register("rm.waiting", lambda: len(self._waiting),
                       floor=0, owner=owner, active=alive,
                       gauge="rm.state.waiting")
        scope.register("rm.presync_buffer",
                       lambda: len(self._presync_buffer),
                       floor=0, owner=owner, active=alive,
                       gauge="rm.state.presync_buffer")
        scope.register("rm.lf_unacked",
                       lambda: sum(len(d) for d in self._lf_unacked.values()),
                       floor=0, owner=owner, active=alive,
                       gauge="rm.state.lf_unacked")
        scope.register("rm.outbound_copies", lambda: len(self._outbound_copies),
                       floor=0, owner=owner, active=alive,
                       gauge="rm.state.outbound_copies")
        # Hosted replicas are capacity, not churn: one entry per group
        # this processor hosts, so the registration is snapshot-only.
        scope.register("rm.replicas", lambda: len(self.replicas),
                       floor=None, owner=owner, active=alive,
                       gauge="rm.state.replicas")
        # Primary memory floors at the directory size: one entry per
        # *current* group.  An entry outliving its group's removal is a
        # leak (regression-pinned in tests/test_style_switch.py).
        scope.register("rm.last_primary", lambda: len(self._last_primary),
                       floor=lambda: len(self.registry), owner=owner,
                       active=alive)
        self._response_filter.register_audit(scope, owner=owner, active=alive,
                                             prefix="rm.filter",
                                             gauge_prefix="rm.state.filter")

    def _execute(self, msg: DomainMessage, record: ReplicaRecord,
                 info: GroupInfo, request: RequestMessage, key: Tuple,
                 silent: bool = False, replay: bool = False) -> None:
        interface = self.interfaces.get(info.interface_name)
        if interface is None:
            raise ConfigurationError(
                f"no interface {info.interface_name!r} registered")
        execution = Execution(record.servant, interface, request,
                              parent_ts=msg.timestamp)
        execution.silent = silent
        execution.replay = replay
        if self._span_collector.enabled and msg.trace is not None:
            tr = msg.trace
            execution.trace_span = self._span_collector.start(
                tr[0], "rm.execute", parent=tr[1], source=self.name,
                op=request.operation)
        self.stats["invocations_executed"] += 1
        self._m_invocations.inc()
        outcome = execution.start()
        self._handle_outcome(execution, outcome, msg, info, key)

    def _handle_outcome(self, execution: Execution, outcome: Outcome,
                        original: DomainMessage, info: GroupInfo,
                        key: Tuple) -> None:
        if outcome.kind == Outcome.NESTED:
            self._issue_nested(execution, outcome.nested, original, info, key)
            return
        # Terminal: build the reply.
        if outcome.kind == Outcome.DONE:
            reply = reply_for_result(execution.request.request_id,
                                     execution.op, outcome.value)
        else:
            reply = reply_for_exception(execution.request.request_id,
                                        outcome.error)
        if execution.trace_span:
            self._span_collector.end(execution.trace_span,
                                     outcome=outcome.kind)
            execution.trace_span = 0
        seen = self._invocations_seen.setdefault(original.target_group, {})
        seen[key] = _InvocationRecord(status="done", response_iiop=reply,
                                      response_expected=execution.request.response_expected)
        owed = self._post_execution(original, info)
        if execution.request.response_expected and not execution.silent:
            if self._should_respond(info):
                self._respond(original, reply, owed)
                return
            if info.style.is_semi_active:
                # Leader-follower follower: the reply is computed and
                # cached but withheld — the leader's copy is the one on
                # the wire.  Track it until the leader's response is
                # delivered in total order, so a promoted survivor can
                # resend every reply the dead leader never delivered.
                self._lf_unacked.setdefault(info.group_id, {})[key] = original
                self.stats["responses_withheld"] += 1
                self.metrics.counter("rm.style.responses_withheld").inc()
        if owed:
            # No reply to ride on (a one-way operation): the checkpoint
            # goes by itself.
            self.stats["state_updates"] += 1
            self._m_state_updates.inc()
            group = info.group_id
            self.multicast(DomainMessage(
                MsgKind.CHECKPOINT, group, group, data=owed))

    def _post_execution(self, original: DomainMessage,
                        info: GroupInfo) -> Optional[Dict[str, Any]]:
        """The checkpoint a passive primary owes its backups after
        completing this operation, if it is the ``checkpoint_every``-th
        since its last one.  It rides the reply (:meth:`_respond`), or
        is multicast by itself when no reply goes out.  None otherwise,
        and wherever every replica executed the call."""
        record = self.replicas.get(info.group_id)
        if record is None or not info.style.is_passive:
            return None
        record.since_checkpoint += 1
        if record.since_checkpoint < info.checkpoint_every:
            return None
        record.since_checkpoint = 0
        self.stats["checkpoints"] += 1
        self._m_checkpoints_sent.inc()
        return {"state": record.servant.get_state(),
                "upto_ts": original.timestamp}

    # ==================================================================
    # Nested invocations (Figure 6)
    # ==================================================================

    def _issue_nested(self, execution: Execution, call: NestedCall,
                      original: DomainMessage, info: GroupInfo,
                      key: Tuple) -> None:
        op_id = execution.next_child_op_id()
        if call.target.startswith("IOR:"):
            self._issue_egress(execution, call, original, info, key, op_id)
            return
        target_info = self.registry.by_name(call.target)
        if target_info is None:
            outcome = execution.resume_error(ConfigurationError(
                f"unknown nested target {call.target!r}"))
            self._handle_outcome(execution, outcome, original, info, key)
            return
        target_iface = self.interfaces[target_info.interface_name]
        nested_op = target_iface.operation(call.operation)
        votes = self.votes_needed(target_info)
        if votes is None and not nested_op.oneway:
            # Fail fast: a target with zero live replicas can never
            # answer (see votes_needed).
            self.metrics.counter("rm.invoke.unservable").inc()
            self.tracer.emit(self.scheduler.now, "eternal.unservable",
                             self.name,
                             f"nested call to group {call.target!r} "
                             "with zero live replicas")
            outcome = execution.resume_error(TransientError(
                f"group {call.target!r} has no live replicas"))
            self._handle_outcome(execution, outcome, original, info, key)
            return
        request = RequestMessage(
            request_id=_deterministic_request_id(op_id),
            response_expected=not nested_op.oneway,
            object_key=make_object_key(self.domain_name, target_info.group_id),
            operation=nested_op.name,
            body=encode_arguments(nested_op, call.args),
        )
        message = DomainMessage(
            kind=MsgKind.INVOCATION,
            source_group=info.group_id,
            target_group=target_info.group_id,
            client_id=UNUSED_CLIENT_ID,
            op_id=op_id,
            iiop=encode_request(request),
        )
        tr = original.trace
        if tr is not None and self._span_collector.enabled:
            # Nested hop: the child invocation parents under the live
            # rm.execute span, so Figure 6's parent/child structure is
            # visible in the exported tree.  Hop count is unchanged —
            # the call stays inside this domain.
            message.trace = (tr[0], execution.trace_span or tr[1], tr[2])
        if not nested_op.oneway:
            wait_key = (target_info.group_id, info.group_id, op_id)
            self._waiting[wait_key] = _Waiter(
                op=nested_op, execution=execution, original=original,
                message=message)
            self._response_filter.expect(wait_key, votes_needed=votes)
        # Leader-follower: only the leader puts the nested invocation on
        # the ring (one copy instead of N); followers derive the same
        # operation id, register the same expectation, and resume on the
        # totally-ordered response like everyone else.  Catch-up replays
        # must still multicast — the cached response they need lives in
        # the target's dedup table and has to be solicited again.
        lf_follower = (info.style.is_semi_active and not execution.replay
                       and info.primary(self.live_hosts) != self.host.name)
        if not lf_follower:
            self._multicast_copy(message)
        if nested_op.oneway:
            # No response will come; resume immediately with None.
            outcome = execution.resume(None)
            self._handle_outcome(execution, outcome, original, info, key)

    def _issue_egress(self, execution: Execution, call: NestedCall,
                      original: DomainMessage, info: GroupInfo,
                      key: Tuple, op_id: OperationId) -> None:
        """Nested call whose target is outside this domain (an IOR)."""
        tr = original.trace
        trace = None
        if tr is not None and self._span_collector.enabled:
            # Leaving the domain through the remote gateway: hop + 1.
            trace = (tr[0], execution.trace_span or tr[1], tr[2] + 1)
        op = self._egress.issue(info.group_id, op_id, call, trace=trace)
        if op.oneway:
            # Best-effort, as in-domain: no response will come.
            outcome = execution.resume(None)
            self._handle_outcome(execution, outcome, original, info, key)
            return
        wait_key = (EXTERNAL_GROUP, info.group_id, op_id)
        self._waiting[wait_key] = _Waiter(
            op=op, execution=execution, original=original)
        self._response_filter.expect(wait_key, votes_needed=1)

    def votes_needed(self, info: GroupInfo) -> Optional[int]:
        """Votes a response needs before delivery; None = unservable.
        Shared by intra-domain invocations and this host's gateway.

        One copy suffices unless the style votes, where it is the
        majority of the *live* replicas.  With zero live replicas
        nobody will ever answer, whatever the style (and the old voting
        fallback to ``len(placement)`` demanded a quorum of dead
        hosts), so the caller must fail fast instead (None).  Before
        the first membership install the full placement stands in for
        the live set (nothing can be delivered yet anyway).
        """
        live = (len(info.live_replicas(self.live_hosts))
                if self.live_hosts else len(info.placement))
        if live == 0:
            return None
        return live // 2 + 1 if info.style.needs_voting else 1

    def votes_now(self, group_id: int) -> Optional[float]:
        """:meth:`votes_needed` by group id, as ``requorum`` asks it:
        no opinion on a responder the registry does not hold (a removed
        group, the EXTERNAL pseudo-group of egress waits)."""
        info = self.registry.get(group_id)
        if info is None:
            return DuplicateSuppressor.UNCHANGED
        return self.votes_needed(info)

    def _requorum(self) -> None:
        """Re-decide every wait after a membership install or a style
        switch (total-order events, so every processor settles the same
        waits at the same point): fail those whose responder group lost
        every replica, resume those a lowered quorum already satisfies."""
        for wait_key, payload in self._response_filter.requorum(
                self.votes_now):
            if payload is None:
                self.metrics.counter("rm.invoke.unservable").inc()
                self._settle(wait_key, TransientError(
                    f"group {wait_key[0]} lost all replicas"))
            else:
                self.metrics.counter("rm.style.vote_relaxed").inc()
                self._settle(wait_key, payload)

    # ==================================================================
    # Responses
    # ==================================================================

    def _on_response(self, msg: DomainMessage) -> None:
        # A passive primary's reply carries the checkpoint it owes its
        # backups: applied first, wherever the reply is addressed, so
        # "the reply was delivered" implies "every backup holds it".
        if "state" in msg.data:
            self._apply_checkpoint(msg)
        # Leader-follower ack: the leader's response, delivered in total
        # order, retires every follower's withheld copy of the same
        # operation — whatever group the response is addressed to.
        unacked = self._lf_unacked.get(msg.source_group)
        if unacked is not None:
            unacked.pop(
                dedup_key(msg.target_group, msg.client_id, msg.op_id), None)
        if msg.target_group == GATEWAY_GROUP:
            return  # handled by the attached gateway via observe_delivered
        if msg._trace_order:
            # Close the response's ordering-wait span at delivery (first
            # receiver wins; every receiver observes the same instant).
            self._span_collector.end(msg._trace_order, seq=msg.timestamp)
        response_filter = self._response_filter
        if (msg.target_group == EXTERNAL_GROUP
                and msg.client_id != UNUSED_CLIENT_ID):
            wait_key = (msg.source_group, msg.client_id, msg.op_id)
            if not (response_filter.is_expected(wait_key)
                    or response_filter.was_delivered(wait_key)):
                return  # another processor's driver invocation
        else:
            wait_key = (msg.source_group, msg.target_group, msg.op_id)
        verdict, payload = response_filter.offer(
            wait_key, msg.iiop, responder=msg.data.get("responder"))
        if verdict == DuplicateSuppressor.DELIVER:
            self._settle(wait_key, payload)
        elif verdict == DuplicateSuppressor.DUPLICATE:
            self.stats["responses_suppressed"] += 1
        else:
            return  # a vote short of its quorum, or nobody waits here

    def _settle(self, wait_key: Tuple,
                result: Union[bytes, Exception]) -> None:
        """End the wait registered under ``wait_key`` — the only way
        one ends: with the response payload the filter agreed on (from
        :meth:`_on_response`, or freed by :meth:`_requorum`), or with
        the error to raise at the waiter because no response will come.
        Resolves the ambassador's promise or resumes the suspended
        execution."""
        waiter = self._waiting.pop(wait_key, None)
        if waiter is None:
            return
        if not isinstance(result, Exception):
            self.stats["responses_delivered"] += 1
            if wait_key[0] == EXTERNAL_GROUP:
                self._egress.complete(wait_key[1], wait_key[2])
            reply = decode_reply(result)
            try:
                result = decode_result(waiter.op, reply,
                                       little_endian=reply.little_endian)
            except Exception as exc:
                result = exc
        failed = isinstance(result, Exception)
        if waiter.promise is not None:
            if failed:
                waiter.promise.reject(result)
            else:
                waiter.promise.resolve(result)
            return
        info = self.registry.get(wait_key[1])  # the invoking group
        if info is None:
            return
        execution, original = waiter.execution, waiter.original
        outcome = (execution.resume_error(result) if failed
                   else execution.resume(result))
        self._handle_outcome(
            execution, outcome, original, info,
            dedup_key(original.source_group, original.client_id,
                      original.op_id))

    # ==================================================================
    # Ambassador: locally-originated invocations (testing/driver API)
    # ==================================================================

    def external_invoke(self, target_group_id: int, operation: str,
                        args: Sequence[Any], client_uid: str,
                        request_seq: int) -> Promise:
        """Invoke a replicated group from this processor, outside any
        group context (used by the domain driver API and managers)."""
        promise = Promise()
        info = self.registry.get(target_group_id)
        if info is None:
            promise.reject(ConfigurationError(
                f"unknown group id {target_group_id}"))
            return promise
        interface = self.interfaces[info.interface_name]
        op = interface.operation(operation)
        op_id = external_operation_id(request_seq)
        request = RequestMessage(
            request_id=request_seq,
            response_expected=not op.oneway,
            object_key=make_object_key(self.domain_name, target_group_id),
            operation=op.name,
            body=encode_arguments(op, args),
        )
        message = DomainMessage(
            kind=MsgKind.INVOCATION,
            source_group=EXTERNAL_GROUP,
            target_group=target_group_id,
            client_id=client_uid,
            op_id=op_id,
            iiop=encode_request(request),
        )
        if op.oneway:
            self.multicast(message)
            promise.resolve(None)
            return promise
        votes = self.votes_needed(info)
        if votes is None:
            # Fail fast instead of registering a wait no live replica
            # can ever end.
            self.metrics.counter("rm.invoke.unservable").inc()
            self.tracer.emit(self.scheduler.now, "eternal.unservable",
                             self.name,
                             f"invocation of group {target_group_id} "
                             "with zero live replicas")
            promise.reject(TransientError(
                f"group {target_group_id} has no live replicas"))
            return promise
        wait_key = (target_group_id, client_uid, op_id)
        self._waiting[wait_key] = _Waiter(op=op, promise=promise)
        self._response_filter.expect(wait_key, votes_needed=votes)
        self.multicast(message)
        return promise

    # ==================================================================
    # Control messages
    # ==================================================================

    def _on_replica_ready_delivered(self, msg: DomainMessage) -> None:
        for fn in list(self._replica_ready_listeners):
            fn(msg.data["group_id"], msg.data["host"], msg.data["version"])

    def _on_gateway_kind(self, msg: DomainMessage) -> None:
        """CLIENT_GONE: owned by the attached gateway, which observes
        every delivery through :meth:`_dispatch`."""

    def _on_registry_sync_delivered(self, msg: DomainMessage) -> None:
        """Incumbents already hold the directory (joiners apply the
        snapshot pre-sync, in :meth:`_on_deliver`)."""

    def _on_registry_sync_request(self, msg: DomainMessage) -> None:
        # Every synced member answers; the requester applies the
        # first snapshot and ignores the rest (idempotent).
        if self.synced and msg.data.get("requester") != self.host.name:
            self.multicast(DomainMessage(
                kind=MsgKind.REGISTRY_SYNC, source_group=0,
                target_group=0,
                data={"groups": self.registry.all_groups(),
                      "for": [msg.data.get("requester")]},
            ))

    def _apply_registry_sync(self, msg: DomainMessage) -> None:
        """Adopt the directory snapshot, then replay buffered deliveries.

        The snapshot covers everything ordered before it; the buffered
        messages cover everything ordered between our membership install
        and the snapshot's delivery; live delivery covers the rest —
        together a gap-free view of the directory's history.
        """
        for info in msg.data["groups"]:
            if info.group_id not in self.registry:
                self.registry.announce(info)
                self._last_primary[info.group_id] = info.primary(
                    self.live_hosts or info.placement)
        self.synced = True
        buffered, self._presync_buffer = self._presync_buffer, []
        for queued in buffered:
            self._dispatch(queued)
        self.tracer.emit(self.scheduler.now, "eternal.synced", self.name,
                         f"registry synced ({len(msg.data['groups'])} groups, "
                         f"{len(buffered)} replayed)")

    def _apply_group_announce(self, msg: DomainMessage) -> None:
        info: GroupInfo = msg.data["info"]
        self.registry.announce(info)
        self._last_primary[info.group_id] = info.primary(self.live_hosts or
                                                         info.placement)
        if (info.factory_name
                and self.host.name in info.placement
                and info.group_id not in self.replicas):
            self._create_local_replica(info, ready=True)

    def _apply_group_remove(self, msg: DomainMessage) -> None:
        group_id = msg.data["group_id"]
        self.registry.remove(group_id)
        self.replicas.pop(group_id, None)
        self.logs.pop(group_id, None)
        self._invocations_seen.pop(group_id, None)
        # The primary memory and withheld-response tracking are keyed by
        # group too; without these pops a removed group's entries lived
        # forever (the rm.last_primary leak this line fixes).
        self._last_primary.pop(group_id, None)
        self._lf_unacked.pop(group_id, None)

    def _create_local_replica(self, info: GroupInfo, ready: bool) -> None:
        factory = self.factories.get(info.factory_name)
        if factory is None:
            raise ConfigurationError(f"no factory {info.factory_name!r}")
        servant = _call_factory(factory, self)
        self.replicas[info.group_id] = ReplicaRecord(
            group_id=info.group_id, servant=servant,
            version=info.version, ready=ready)
        if info.style.is_passive:
            self._log_for(info.group_id)

    def _apply_add_replica(self, msg: DomainMessage) -> None:
        group_id = msg.data["group_id"]
        new_host = msg.data["host"]
        info_before = self.registry.get(group_id)
        if info_before is None:
            return
        donor = info_before.primary(self.live_hosts)
        actually_added = self.registry.add_replica(group_id, new_host)
        if not actually_added:
            return
        info = self.registry.require(group_id)
        if new_host == self.host.name and group_id not in self.replicas:
            has_donor = donor is not None and donor != new_host
            self._create_local_replica(info, ready=not has_donor)
            if not has_donor:
                # Nothing to transfer (first/only replica): announce ready.
                self._announce_ready(group_id, info.version)
        if donor == self.host.name and donor != new_host:
            record = self.replicas.get(group_id)
            if record is not None:
                self.stats["state_transfers_sent"] += 1
                transfer = DomainMessage(
                    kind=MsgKind.STATE_TRANSFER,
                    source_group=group_id,
                    target_group=group_id,
                    data={
                        "group_id": group_id,
                        "recipient": new_host,
                        "state": record.servant.get_state(),
                        "version": record.version,
                        "cut_ts": msg.timestamp,
                        "dedup": dict(self._invocations_seen.get(group_id, {})),
                    },
                )
                self._m_transfer_bytes.observe(transfer.size_hint())
                self.multicast(transfer)

    def _apply_remove_replica(self, msg: DomainMessage) -> None:
        group_id = msg.data["group_id"]
        host_name = msg.data["host"]
        self.registry.remove_replica(group_id, host_name)
        if host_name == self.host.name:
            self.replicas.pop(group_id, None)
            self.logs.pop(group_id, None)
            self._lf_unacked.pop(group_id, None)
        self._check_primary_changes()

    def _apply_state_transfer(self, msg: DomainMessage) -> None:
        if msg.data["recipient"] != self.host.name:
            return
        group_id = msg.data["group_id"]
        record = self.replicas.get(group_id)
        if record is None or record.ready:
            return
        self.stats["state_transfers_received"] += 1
        record.servant.set_state(msg.data["state"])
        # record.version stays at the registry version it was created
        # with: during a live upgrade the donor may still run old code,
        # but the transferred *state* is version-compatible by contract.
        self._invocations_seen[group_id] = dict(msg.data["dedup"])
        # The snapshot covers everything ordered before the cut — record
        # it as a checkpoint so a later promotion replays only what this
        # replica logs *after* the transfer, never the ops whose effects
        # the snapshot already contains.  (The donor's log itself is NOT
        # transferred: every entry predates the cut by construction.)
        log = self._log_for(group_id)
        log.install_checkpoint(msg.data["state"], ts=msg.data["cut_ts"])
        record.ready = True
        info = self.registry.get(group_id)
        buffered, record.buffered = record.buffered, []
        if info is not None:
            for queued in buffered:
                self._process_invocation(queued, record, info)
        self._announce_ready(group_id, record.version)

    def _announce_ready(self, group_id: int, version: int) -> None:
        self.multicast(DomainMessage(
            kind=MsgKind.REPLICA_READY,
            source_group=group_id,
            target_group=group_id,
            data={"group_id": group_id, "host": self.host.name,
                  "version": version},
        ))

    def _apply_checkpoint(self, msg: DomainMessage) -> None:
        """A passive primary's checkpoint, standalone or riding its
        reply: every replica hosted here logs it, the primary included.
        A backup of a style that keeps backups loaded also sets its
        servant, even when the log refuses the checkpoint as older — an
        operation completing out of order carries the newest state."""
        group_id = msg.source_group
        record = self.replicas.get(group_id)
        info = self.registry.get(group_id)
        if record is None or info is None or not info.style.is_passive:
            # Not hosted here — or late, behind a live STYLE_SWITCH out
            # of the passive styles whose catch-up covered the operation:
            # it would set an executing replica back and re-create the log.
            return
        state = msg.data["state"]
        if (info.style.loads_backups
                and info.primary(self.live_hosts) != self.host.name):
            record.servant.set_state(state)
        self._log_for(group_id).install_checkpoint(state, msg.data["upto_ts"])

    # ==================================================================
    # Leader-follower ordering and runtime style switching
    # ==================================================================

    def _check_leader_order(self, msg: DomainMessage) -> None:
        """Verify the leader's nested-call ordering against our own, on
        delivery of its nested INVOCATION from a group hosted here.

        Followers derived the same child operation id when they executed
        the parent (total order + deterministic Figure 6 counters); the
        leader's message makes that a *checked* property.  A mismatch
        would mean replica divergence — counted, never silently ignored
        (`rm.style.order.mismatch` is asserted zero by the test suite).
        Any copy from the group counts, not the leader's alone: once the
        style is settled only the leader sends them, and a copy a replica
        queued under ACTIVE that is sequenced after a live switch to
        this style is held to the same wait, at its sender too.
        """
        info = self.registry.get(msg.source_group)
        if info is None or not info.style.is_semi_active:
            return
        if not self.replicas[msg.source_group].ready:
            return  # joining replica: it never executed the parent
        if info.primary(self.live_hosts) == self.host.name:
            return  # the leader checking its own message is vacuous
        if not msg.request().response_expected:
            return  # one-way: nobody waits, so there is nothing to compare
        wait_key = (msg.target_group, msg.source_group, msg.op_id)
        if (wait_key in self._waiting
                or self._response_filter.was_delivered(wait_key)):
            self.metrics.counter("rm.style.order.followed").inc()
        else:
            self.metrics.counter("rm.style.order.mismatch").inc()

    def _apply_style_switch(self, msg: DomainMessage) -> None:
        """Apply a runtime replication-style change.

        The switch point is the message's position in the total order,
        so every processor partitions the group's history identically:
        operations ordered before it complete under the old engine (the
        closing :meth:`_requorum` lowers a dropped voting requirement,
        so nothing strands), operations after it run entirely under the
        new one.
        Epoch-guarded via the registry, so the redundant copies emitted
        by replicated managers apply exactly once.
        """
        group_id = msg.data["group_id"]
        new_style = ReplicationStyle(msg.data["style"])
        epoch = msg.data["epoch"]
        info = self.registry.get(group_id)
        if info is None:
            return
        old_style = info.style
        if not self.registry.set_style(group_id, new_style, epoch):
            return  # duplicate or stale switch: idempotent control message
        if old_style is new_style:
            return  # epoch advanced, engine unchanged
        self.stats["style_switches"] += 1
        self.metrics.counter("rm.style.switches").inc()
        if self._span_collector.enabled:
            self._span_collector.instant(
                f"style/{group_id}/{epoch}", "rm.style.switch",
                source=self.name, old=old_style.value, new=new_style.value)
        self.tracer.emit(
            self.scheduler.now, "eternal.style_switch", self.name,
            f"group {group_id}: {old_style.value} -> {new_style.value}",
            epoch=epoch)
        info = self.registry.require(group_id)
        record = self.replicas.get(group_id)
        backup = info.primary(self.live_hosts) != self.host.name
        # (1) Into a passive style: from an executing one, seed the log
        # from the live servant (backups log-and-replay from this cut);
        # a cold backup entering a style that keeps backups loaded loads
        # its checkpoint, as promotion there restores nothing.
        if new_style.is_passive and record is not None:
            log = self._log_for(group_id)
            if old_style.executes_everywhere:
                log.install_checkpoint(record.servant.get_state(),
                                       ts=msg.timestamp)
            elif (new_style.loads_backups and backup
                    and log.checkpoint is not None):
                record.servant.set_state(log.checkpoint.state)
        # (2) Passive -> executing: backups replay their log suffix
        # (silently — those operations' responses were already served by
        # the old primary) to reach the primary's state, then the log is
        # dropped: executing styles keep hot state instead.
        if old_style.is_passive and new_style.executes_everywhere:
            if record is not None and backup:
                replayed = self._restore_and_replay(info, record, old_style,
                                                    silent=True)
                self.tracer.emit(self.scheduler.now, "eternal.style_catchup",
                                 self.name, f"group {group_id}: replayed "
                                 f"{replayed} ops to leave {old_style.value}")
                if replayed:
                    self.metrics.counter(
                        "rm.style.catchup_replays").inc(replayed)
            self.logs.pop(group_id, None)
        # (3) Voting dropped: in-flight majority expectations can never
        # fill once only the leader speaks — votes_needed says so from
        # here on, which is all the sweep needs to know.
        self._requorum()

    def _restore_and_replay(self, info: GroupInfo, record: ReplicaRecord,
                            kept_by: ReplicationStyle, silent: bool) -> int:
        """Bring a passive backup to the primary's state; returns how
        many logged operations it replayed.  The log's checkpoint is
        restored unless ``kept_by``, the style that kept the log, loaded
        each checkpoint into the servant as it came — the servant may
        then be newer, as the log refuses a later checkpoint with a lower
        ``upto_ts``.  The suffix replays audibly on promotion (the dead
        primary's responses may be lost), silently in a switch's
        catch-up: nested calls are still multicast (``Execution.replay``)
        to solicit their targets' cached responses; terminal responses
        are not (``Execution.silent``), the old primary served them."""
        log = self._log_for(info.group_id)
        if log.checkpoint is not None and not kept_by.loads_backups:
            record.servant.set_state(log.checkpoint.state)
        replay = log.replay_after(log.latest_covered_ts())
        seen = self._invocations_seen.setdefault(info.group_id, {})
        for msg in replay:
            request = msg.request()
            key = dedup_key(msg.source_group, msg.client_id, msg.op_id)
            seen[key] = _InvocationRecord(
                status="executing",
                response_expected=request.response_expected)
            self._execute(msg, record, info, request, key,
                          silent=silent, replay=silent)
        return len(replay)

    # ==================================================================
    # Membership changes: failover and recovery
    # ==================================================================

    def _on_membership(self, members: Tuple[str, ...], ring_id) -> None:
        previous = self._prev_members
        self._prev_members = tuple(members)
        self.live_hosts = tuple(members)
        # The cut delivered or dropped everything sequenced on the old
        # ring: an own copy that left the queue without coming back to
        # retire its entry never will now.
        self._outbound_copies = {
            key: entry for key, entry in self._outbound_copies.items()
            if entry.queued}
        # Registry synchronization for joiners: the lowest-named incumbent
        # (present in both the old and new membership) multicasts the
        # directory snapshot; every incumbent computes the same incumbent.
        if self.synced and previous:
            newcomers = [m for m in members if m not in previous]
            incumbents = [m for m in members if m in previous]
            if newcomers and incumbents and incumbents[0] == self.host.name:
                self.multicast(DomainMessage(
                    kind=MsgKind.REGISTRY_SYNC, source_group=0, target_group=0,
                    data={"groups": self.registry.all_groups(),
                          "for": list(newcomers)},
                ))
        # Recovery duration: crash to the reformation that excludes the
        # crashed processor (service is consistent again from here on).
        # The lowest-named incumbent records, so each departure is
        # measured exactly once however many processors survive.
        if previous:
            departed = [m for m in previous if m not in members]
            incumbents = [m for m in members if m in previous]
            if departed and incumbents and incumbents[0] == self.host.name:
                hosts = self.host.network.hosts
                for name in departed:
                    dead = hosts.get(name)
                    if (dead is not None and not dead.alive
                            and dead.last_crash_at is not None):
                        self._m_recovery_duration.observe(
                            self.scheduler.now - dead.last_crash_at)
        removed = self.registry.prune_dead_hosts(members)
        if removed:
            self.tracer.emit(self.scheduler.now, "eternal.prune",
                             self.name, "replicas pruned",
                             removed=[f"{g}@{h}" for g, h in removed])
        self._check_primary_changes()
        self._requorum()
        for fn in list(self._membership_listeners):
            fn(self.live_hosts)

    def _check_primary_changes(self) -> None:
        """Detect primaries/leaders shifting to this host; take over."""
        for info in self.registry.all_groups():
            new_primary = info.primary(self.live_hosts)
            old_primary = self._last_primary.get(info.group_id)
            self._last_primary[info.group_id] = new_primary
            if (new_primary == self.host.name
                    and old_primary != self.host.name
                    and info.group_id in self.replicas):
                if info.style.is_passive:
                    self._recover_as_primary(info)
                elif info.style.is_semi_active:
                    self._promote_leader_follower(info)

    def _recover_as_primary(self, info: GroupInfo) -> None:
        """Passive failover: restore state, replay the log."""
        record = self.replicas.get(info.group_id)
        if record is None:
            return
        self._m_failovers.inc()
        replayed = self._restore_and_replay(info, record, info.style,
                                            silent=False)
        self.tracer.emit(self.scheduler.now, "eternal.failover", self.name,
                         f"promoted to primary of group {info.group_id}",
                         style=info.style.value, replayed=replayed)
        self.stats["replays"] += replayed
        self._m_replays.inc(replayed)

    def _promote_leader_follower(self, info: GroupInfo) -> None:
        """Leader-follower failover: the new leader's state is already
        hot, so promotion is re-transmission, not recovery.  Resend the
        cached replies the dead leader never got onto the ring (the
        withheld-response ledger), and re-issue still-suspended nested
        invocations — the leader may have crashed before multicasting
        them.  Over-sending is safe (targets and receivers all
        deduplicate); under-sending would lose operations that were
        ordered but never answered."""
        record = self.replicas.get(info.group_id)
        if record is None:
            return
        self._m_failovers.inc()
        self.metrics.counter("rm.style.promotions").inc()
        seen = self._invocations_seen.get(info.group_id, {})
        resent = 0
        for key, original in list(self._lf_unacked.get(info.group_id,
                                                       {}).items()):
            cached = seen.get(key)
            if (cached is not None and cached.status == "done"
                    and cached.response_iiop is not None):
                self.stats["responses_resent"] += 1
                self._respond(original, cached.response_iiop)
                resent += 1
        # The resends retire their own unacked entries when they come
        # back around in total order (_on_response pops them).
        reissued = 0
        for wait_key, waiter in list(self._waiting.items()):
            if wait_key[1] != info.group_id or waiter.message is None:
                continue
            self.multicast(waiter.message)
            reissued += 1
        self.tracer.emit(self.scheduler.now, "eternal.failover", self.name,
                         f"promoting to leader of group {info.group_id}",
                         style=info.style.value, resent=resent,
                         reissued=reissued)


def _call_factory(factory: Callable[..., Servant],
                  rm: "ReplicationMechanisms") -> Servant:
    """Invoke a servant factory, passing the local Replication Mechanisms
    when the factory declares a parameter for it (manager servants need
    access to the local registry; plain application factories do not)."""
    import inspect
    try:
        params = inspect.signature(factory).parameters.values()
        takes_rm = any(
            p.default is inspect.Parameter.empty
            and p.kind in (inspect.Parameter.POSITIONAL_ONLY,
                           inspect.Parameter.POSITIONAL_OR_KEYWORD)
            for p in params)
    except (TypeError, ValueError):
        takes_rm = False
    return factory(rm) if takes_rm else factory()


def _deterministic_request_id(op_id: OperationId) -> int:
    """Request id derived from the operation id so every replica of the
    invoking group marshals byte-identical nested requests."""
    return ((op_id.parent_ts & 0xFFFFFF) << 8) | (op_id.child_seq & 0xFF)
