"""The Eternal Replication Mechanisms (paper Figure 2, sections 2.2, 3.2).

One :class:`ReplicationMechanisms` instance runs on every processor of
a fault tolerance domain, layered on the local Totem member.  It:

* hosts the local replicas of application (and manager) object groups;
* dispatches totally-ordered delivered invocations to those replicas,
  detecting and suppressing duplicate invocations via the
  (source group, client id, operation id) key and caching responses so
  duplicates can be answered without re-execution — a client's records
  kept only from its floor up (the lowest operation it still awaits,
  carried by its requests);
* multicasts replica responses back to the invoking group or gateway,
  withdrawing its own still-queued copy when a sibling replica's
  identical one is delivered first (sender-side duplicate suppression);
* drives nested invocations (generator servants) with deterministic
  Figure 6 identifiers;
* asks each group's engine (:mod:`.engines`, one per replication style
  family) everything its style decides — who executes, who responds,
  what an execution owes the backups, what a primary change does — and
  hands a group from one engine to the other at a live style switch;
  what an engine keeps for a replica (a passive log and checkpoint, a
  follower's withheld replies) lives on its :class:`ReplicaRecord`;
* transfers state to joining replicas;
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

from dataclasses import dataclass, field, replace
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple)

from ..core.duplicates import DedupTable, DuplicateSuppressor
from ..core.identifiers import (
    OperationId,
    UNUSED_CLIENT_ID,
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
from ..sim.world import Promise
from ..totem.member import Queued, TotemMember
from .engines import ENGINES
from .execution import Execution, Outcome
from .messages import DomainMessage, MsgKind
from .naming import (
    EXTERNAL_GROUP, FIRST_APPLICATION_GROUP, GATEWAY_GROUP, make_object_key)
from .registry import GroupInfo, GroupRegistry
from .styles import ReplicationStyle

# Backstop on the per-group duplicate-detection table.  A client's
# floor retires its records; only clients that carry none (nested calls,
# the driver, old client contexts) or never return reach this bound,
# where the least recently recorded client loses its oldest record.
DEDUP_TABLE_LIMIT = 100_000

# Deliveries that change the directory: each is announced to the
# ``on_directory_change`` listeners once applied.
DIRECTORY_KINDS = frozenset((
    MsgKind.GROUP_ANNOUNCE, MsgKind.GROUP_REMOVE, MsgKind.ADD_REPLICA,
    MsgKind.REMOVE_REPLICA, MsgKind.REPLICA_READY))

# ``ReplicationMechanisms.stats`` key -> the world counter summing it
# over processors (None: per processor only).
_STATS = {
    "invocations_executed": "eternal.invocations.executed",
    "invocations_duplicate": "eternal.invocations.duplicate",
    "responses_resent": None,
    "responses_delivered": None,
    "responses_suppressed": None,
    "copies_queued": "rm.copies.queued",
    "copies_withdrawn": "rm.copies.withdrawn",
    "checkpoints": "eternal.checkpoint.multicasts",
    "state_updates": "eternal.state.updates",
    "state_transfers_sent": None,
    "state_transfers_received": None,
    "failovers": "fault.failover.count",
    "replays": "fault.recovery.replays",
    "responses_withheld": "rm.style.responses_withheld",
    "style_switches": "rm.style.switches",
    "orders_followed": "rm.style.order.followed",
    "order_mismatches": "rm.style.order.mismatch",
    "promotions": "rm.style.promotions",
    "catchup_replays": "rm.style.catchup_replays",
    "votes_relaxed": "rm.style.vote_relaxed",
    "invocations_unservable": "rm.invoke.unservable",
    "states_carried": "eternal.state.carried",
    "log_appends": "eternal.log.appends",
    "checkpoint_installs": "eternal.checkpoint.installs",
}
# Each dedup table's (and the response filter's delivered memory's)
# ``stats`` -> the world counter summing it over tables and processors.
_DEDUP_STATS = {
    "retired": "rm.dedup.retired",
    "evicted": "dedup.evicted",
}


@dataclass
class ReplicaRecord:
    """One local replica of a group, and what its engine keeps for it."""

    group_id: int
    servant: Servant
    version: int = 1
    ready: bool = True                 # state installed (or nothing to install)
    buffered: List[DomainMessage] = field(default_factory=list)
    since_checkpoint: int = 0          # completions since the last checkpoint
    added_at: int = 0                  # timestamp of the ADD_REPLICA that made it
    # Passive styles (engines.Passive): the invocations delivered after
    # the checkpoint, in total order (None: no log); (state, upto_ts).
    log: Optional[List[DomainMessage]] = None
    checkpoint: Optional[Tuple[Dict[str, Any], int]] = None
    # A leader-follower follower's withheld replies (engines.SemiActive):
    # dedup key -> invocation, until the leader's reply is delivered.
    withheld: Dict[Tuple, DomainMessage] = field(default_factory=dict)


class _DedupTables(dict):
    """group id -> the group's :class:`DedupTable`, made on first use,
    its counts summed into the world counters from then on."""

    def __init__(self, metrics: Any) -> None:
        super().__init__()
        self._metrics = metrics

    def __missing__(self, group_id: int) -> DedupTable:
        table = self[group_id] = DedupTable(DEDUP_TABLE_LIMIT)
        self._metrics.register_stats(table.stats, _DEDUP_STATS)
        return table


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
    # leader-follower promotion re-multicasts it (engines.SemiActive):
    # the dead leader may have crashed before issuing it, and targets
    # deduplicate anyway.
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
        synced: bool = True,
    ) -> None:
        super().__init__(host, f"rm@{host.name}")
        self.totem = totem
        self.domain_name = domain_name
        self.interfaces = interfaces
        self.factories = factories
        # Causal-trace collector (world-shared); hot paths check
        # ``.enabled`` before doing any span work.
        self._span_collector = host.network.spans

        self.registry = GroupRegistry()
        self.replicas: Dict[int, ReplicaRecord] = {}
        self.live_hosts: Tuple[str, ...] = ()
        self._last_primary: Dict[int, Optional[str]] = {}

        # Registry synchronization: processors that join a running domain
        # (new gateways, recovered hosts) buffer deliveries until an
        # incumbent sends them the directory snapshot.  One request is
        # asked at start; another only at a membership change after the
        # last one was delivered unanswered.
        self.synced = synced
        self._sync_requested = not synced
        self._presync_buffer: List[DomainMessage] = []

        # Duplicate invocation detection: group -> dedup key -> the reply
        # once executed here, else "executing" (admitted), or "retired"
        # for one below its client's floor (never executed again).
        self._invocations_seen = _DedupTables(self.metrics)
        # Duplicate response suppression / voting for nested + external
        # calls; each expectation holds its _Waiter and ends in _settle.
        # Keys: (responder group, invoking group id, op id) for a
        # suspended execution, (responder group, client uid, op id) for
        # an ambassador call — group ids are ints and client uids
        # strings, so never equal.
        self._response_filter = DuplicateSuppressor(settle=self._settle)
        # Our own RESPONSE / nested INVOCATION copies still in the Totem
        # send queue, by DomainMessage.copy_key(), for groups whose
        # engine withdraws copies.  Consulted in _on_deliver.
        self._outbound_copies: Dict[Tuple, Queued] = {}
        # Replicas made by an ADD_REPLICA and still waiting for their
        # state, kept alike everywhere: group -> joining host -> (the
        # ADD_REPLICA's timestamp, the processor owing the transfer).
        self._joining: Dict[int, Dict[str, Tuple[int, str]]] = {}

        self._gateway = None               # attached repro.core.gateway.Gateway
        self._egress = None                # attached cross-domain egress client
        # reprolint: disable=AUD001 -- listener list, fixed at wiring time
        self._membership_listeners: List[Callable[[Tuple[str, ...]], None]] = []
        # reprolint: disable=AUD001 -- listener list, fixed at wiring time
        self._directory_listeners: List[Callable[[DomainMessage], None]] = []

        # One engine per style (built from the ENGINES table), asked
        # whatever the group's style decides.
        # reprolint: disable=AUD001 -- one engine per style, never grows
        self._engines = {style: family(self, style)
                         for style, family in ENGINES.items()}

        self.stats = dict.fromkeys(_STATS, 0)
        m = self.metrics
        m.register_stats(self.stats, _STATS)
        m.register_stats(self._response_filter.stats, _DEDUP_STATS)
        self._m_transfer_bytes = m.histogram("fault.state_transfer.bytes", unit="B")
        self._m_recovery_duration = m.histogram("fault.recovery.duration", unit="s")

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
        """Ask incumbents for the directory snapshot."""
        self._sync_requested = True
        self.multicast(DomainMessage(
            kind=MsgKind.REGISTRY_SYNC_REQUEST, source_group=0, target_group=0,
            data={"requester": self.host.name},
        ))

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

    def on_directory_change(self, fn: Callable[[DomainMessage], None]) -> None:
        """``fn(message)`` once a delivery of one of the
        :data:`DIRECTORY_KINDS` is applied here."""
        self._directory_listeners.append(fn)

    # ==================================================================
    # Outbound multicast helpers
    # ==================================================================

    def multicast(self, message: DomainMessage) -> Queued:
        return self.totem.multicast(message, size=message.size_hint())

    def _multicast_copy(self, message: DomainMessage) -> None:
        """Multicast a local replica's RESPONSE or nested INVOCATION (or
        a Replication Manager replica's GROUP_ANNOUNCE of a group it
        creates): a message every replica of the sending group
        (``message.source_group``) computes identically.

        Where any one copy serves the receiver, ours is remembered
        while it waits for the token so that :meth:`_on_deliver` can
        withdraw it if a sibling's copy is agreed first."""
        entry = self.totem.multicast(message, size=message.size_hint())
        info = self.registry.get(message.source_group)
        if info is not None and self._engines[info.style].withdraws_copies:
            self.stats["copies_queued"] += 1
            self._outbound_copies[message.copy_key()] = entry

    def _respond(self, invocation: DomainMessage, reply_iiop: bytes,
                 carried: Optional[Dict[str, Any]] = None) -> None:
        """Multicast the reply; ``carried`` is what a passive primary
        owes its backups for this operation (``Passive.completed``),
        applied in :meth:`_on_response` at the reply's own position."""
        data: Dict[str, Any] = {"responder": self.host.name}
        if carried:
            data.update(carried)
            self.stats["states_carried"] += 1
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
            self.stats["copies_withdrawn"] += 1
            if mine.payload._trace_order:
                self._span_collector.end(mine.payload._trace_order,
                                         outcome="withdrawn")
        if not self.synced:
            if payload.kind is MsgKind.REGISTRY_SYNC:
                self._apply_registry_sync(payload)
            elif payload.data.get("requester") == self.host.name:
                # Our own request, delivered unanswered so far: the next
                # membership change asks again.  (Replayed after the sync
                # it would be a no-op: _on_registry_sync_request skips
                # its own requester.)
                self._sync_requested = False
            else:
                self._presync_buffer.append(payload)
            return
        self._dispatch(payload)

    def _dispatch(self, payload: DomainMessage) -> None:
        """Hand a delivered message to its kind's handler, then to the
        directory listeners and the gateway (live, or replayed after
        the registry sync)."""
        self._kind_dispatch[payload.kind](payload)
        if payload.kind in DIRECTORY_KINDS:
            for fn in self._directory_listeners:
                fn(payload)
        # Gateways observe their own group's forwarded invocations and all
        # gateway-coordination traffic.
        if self._gateway is not None:
            self._gateway.observe_delivered(payload)

    # ==================================================================
    # Invocations
    # ==================================================================

    def _on_invocation(self, msg: DomainMessage) -> None:
        if msg.source_group in self.replicas:
            source = self.registry.get(msg.source_group)
            if source is not None:
                self._engines[source.style].check_order(msg, source)
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
        key = (msg.source_group, msg.client_id, msg.op_id)
        # The client awaits nothing below its floor: its records there
        # go, and a late copy of any of them is a duplicate.  A new key
        # is recorded before executing, so re-entrant deliveries see it.
        existing = self._invocations_seen[msg.target_group].admit(
            key, msg.floor, "executing", "retired")
        tr = msg.trace if self._span_collector.enabled else None
        if existing is not None:
            self.stats["invocations_duplicate"] += 1
            done = type(existing) is bytes
            if tr is not None:
                self._span_collector.instant(
                    tr[0], "rm.duplicate", parent=tr[1], source=self.name,
                    status="done" if done else existing)
            if done and self._engines[info.style].responds(info):
                # Re-send the cached response: the duplicate may stem from
                # a reinvocation whose original response was lost with a
                # crashed gateway or primary (sections 3.3-3.5).
                # Leader-follower followers hold the same cache but stay
                # silent unless promoted.
                self.stats["responses_resent"] += 1
                self._respond(msg, existing)
            return
        if tr is not None:
            self._span_collector.instant(
                tr[0], "rm.delivery", parent=tr[1], source=self.name,
                seq=msg.timestamp)
        # Execute, or (a passive backup) only log.
        self._engines[info.style].deliver(msg, record, info, msg.request(),
                                          key)

    def _register_audit(self) -> None:
        """Declare this processor's stateful collections to the world
        audit scope (see :mod:`repro.obs.audit`)."""
        scope, owner = self.audit, self.name
        records = self.replicas.values()    # a live view

        def alive() -> bool:
            return self.alive

        def log_floor() -> int:
            # Each log may legitimately hold up to one checkpoint interval
            # of suffix (plus the op that triggered the in-flight
            # checkpoint); anything beyond that was never truncated.
            total = 0
            for record in records:
                if record.log is not None:
                    info = self.registry.get(record.group_id)
                    total += 1 + (info.checkpoint_interval
                                  if info is not None else 10)
            return total

        scope.register("rm.logs",
                       lambda: sum(len(r.log or ()) for r in records),
                       floor=log_floor, owner=owner, active=alive,
                       gauge="rm.state.log_entries")

        def dedup_floor() -> int:
            # A gateway client holds one record at quiescence — more only
            # if its newest floor left a window open (calls that
            # overlapped) — and without a floor, one at most.  Nested
            # calls and the driver carry none: theirs keep the backstop.
            allowed = 0
            for table in self._invocations_seen.values():
                for client, held, floor in table.clients():
                    external = client[0] == GATEWAY_GROUP
                    allowed += 1 if external and floor is None else held
            return allowed

        scope.register("rm.dedup",
                       lambda: sum(len(t)
                                   for t in self._invocations_seen.values()),
                       floor=dedup_floor, owner=owner, active=alive,
                       gauge="rm.state.dedup_entries")
        scope.register("rm.presync_buffer",
                       lambda: len(self._presync_buffer),
                       floor=0, owner=owner, active=alive,
                       gauge="rm.state.presync_buffer")
        scope.register("rm.lf_unacked",
                       lambda: sum(len(r.withheld) for r in records),
                       floor=0, owner=owner, active=alive,
                       gauge="rm.state.lf_unacked")
        scope.register("rm.outbound_copies", lambda: len(self._outbound_copies),
                       floor=0, owner=owner, active=alive,
                       gauge="rm.state.outbound_copies")
        scope.register("rm.joining",
                       lambda: sum(len(d) for d in self._joining.values()),
                       floor=0, owner=owner, active=alive)
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
                 silent: bool = False) -> None:
        interface = self.interfaces.get(info.interface_name)
        if interface is None:
            raise ConfigurationError(
                f"no interface {info.interface_name!r} registered")
        execution = Execution(record.servant, interface, request,
                              parent_ts=msg.timestamp)
        execution.silent = silent
        if self._span_collector.enabled and msg.trace is not None:
            tr = msg.trace
            execution.trace_span = self._span_collector.start(
                tr[0], "rm.execute", parent=tr[1], source=self.name,
                op=request.operation)
        self.stats["invocations_executed"] += 1
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
        seen = self._invocations_seen[original.target_group]
        if key in seen:
            seen[key] = reply
        else:
            seen.put(key, reply)
        # Who responds, what a silent replica keeps, and what the
        # backups are owed: the engine's answer.
        self._engines[info.style].completed(execution, original, info, key,
                                            reply)

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
            outcome = execution.resume_error(
                self._unservable("nested call to", repr(call.target)))
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
            self._response_filter.expect(
                (target_info.group_id, info.group_id, op_id), votes,
                _Waiter(op=nested_op, execution=execution,
                        original=original, message=message))
        if self._engines[info.style].sends_nested(execution, info):
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
        self._response_filter.expect(
            (EXTERNAL_GROUP, info.group_id, op_id), 1,
            _Waiter(op=op, execution=execution, original=original))

    def votes_needed(self, info: GroupInfo) -> Optional[int]:
        """Votes a response needs before delivery; None = unservable.
        Shared by intra-domain invocations and this host's gateway.

        One copy suffices unless the engine votes, where it is the
        majority of the *live* replicas.  With zero live replicas
        nobody will ever answer, whatever the style (and the old voting
        fallback to ``len(placement)`` demanded a quorum of dead
        hosts), so the caller must fail fast instead (None); for one
        copy that is exactly when the group has no primary.  Before
        the first membership install the full placement stands in for
        the live set (nothing can be delivered yet anyway).
        """
        live_hosts = self.live_hosts or info.placement
        if not self._engines[info.style].voting:
            return None if info.primary(live_hosts) is None else 1
        live = len(info.live_replicas(live_hosts))
        return live // 2 + 1 if live else None

    def votes_now(self, group_id: int) -> Optional[float]:
        """:meth:`votes_needed` by group id, as ``requorum`` asks it: no
        opinion on a group the registry does not hold (a removed group,
        the EXTERNAL pseudo-group of egress waits)."""
        info = self.registry.get(group_id)
        if info is None:
            return DuplicateSuppressor.UNCHANGED
        return self.votes_needed(info)

    def _unservable(self, call: str, group: Any) -> TransientError:
        """Fail fast instead of registering a wait no live replica can
        ever end (see :meth:`votes_needed`): the error to raise."""
        self.stats["invocations_unservable"] += 1
        return TransientError(f"group {group} has no live replicas")

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
        record = self.replicas.get(msg.source_group)
        if record is not None and record.withheld:
            record.withheld.pop((msg.target_group, msg.client_id, msg.op_id),
                                None)
        if msg.target_group == GATEWAY_GROUP:
            return  # handled by the attached gateway via observe_delivered
        if msg._trace_order:
            # Close the response's ordering-wait span at delivery (first
            # receiver wins; every receiver observes the same instant).
            self._span_collector.end(msg._trace_order, seq=msg.timestamp)
        if (msg.target_group == EXTERNAL_GROUP
                and msg.client_id != UNUSED_CLIENT_ID):
            # An ambassador call's: expected only where it was issued.
            wait_key = (msg.source_group, msg.client_id, msg.op_id)
        else:
            wait_key = (msg.source_group, msg.target_group, msg.op_id)
        verdict, _ = self._response_filter.offer(
            wait_key, msg.iiop, responder=msg.data.get("responder"))
        if verdict == DuplicateSuppressor.DUPLICATE:
            self.stats["responses_suppressed"] += 1
        # DELIVER is settled in _settle; a vote short of its quorum, or
        # a response nobody waits for here, needs nothing.

    def _settle(self, wait_key: Tuple, waiter: _Waiter, outcome: str,
                payload: Optional[bytes]) -> None:
        """End ``waiter``'s wait, called by the filter whenever
        ``wait_key`` stops being expected: with the payload it agreed on
        (delivered, or freed by a lowered quorum), or with a TRANSIENT
        when no payload will come (the responder group lost every
        replica).  Resolves the ambassador's promise or resumes the
        suspended execution."""
        if payload is None:
            self.stats["invocations_unservable"] += 1
            result: Any = TransientError(
                f"group {wait_key[0]} lost all replicas")
        else:
            if outcome == DuplicateSuppressor.RELAXED:
                self.stats["votes_relaxed"] += 1
            self.stats["responses_delivered"] += 1
            if wait_key[0] == EXTERNAL_GROUP:
                self._egress.complete(wait_key[1], wait_key[2])
            reply = decode_reply(payload)
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
        resumed = (execution.resume_error(result) if failed
                   else execution.resume(result))
        self._handle_outcome(
            execution, resumed, original, info,
            (original.source_group, original.client_id, original.op_id))

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
            promise.reject(self._unservable("invocation of",
                                            target_group_id))
            return promise
        self._response_filter.expect((target_group_id, client_uid, op_id),
                                     votes, _Waiter(op=op, promise=promise))
        self.multicast(message)
        return promise

    # ==================================================================
    # Control messages
    # ==================================================================

    def _on_replica_ready_delivered(self, msg: DomainMessage) -> None:
        """REPLICA_READY: news for the directory listeners only."""

    def _on_gateway_kind(self, msg: DomainMessage) -> None:
        """CLIENT_GONE: a plain client left its gateway, which numbered
        it (section 3.2) and is the only one it could ever reach again,
        so its records and floor go here at the point of the total
        order where every gateway purges it (the attached gateway
        observes the delivery through :meth:`_dispatch`).  An enhanced
        client may fail over and reissue: its records stay."""
        table = self._invocations_seen.get(msg.target_group)
        if table is not None and type(msg.client_id) is int:
            table.forget((GATEWAY_GROUP, msg.client_id))

    def _on_registry_sync_delivered(self, msg: DomainMessage) -> None:
        """Incumbents already hold the directory (joiners apply the
        snapshot pre-sync, in :meth:`_on_deliver`)."""

    def _on_registry_sync_request(self, msg: DomainMessage) -> None:
        # Every synced member answers; the requester applies the
        # first snapshot and ignores the rest (idempotent).
        if self.synced and msg.data.get("requester") != self.host.name:
            self._send_registry([msg.data.get("requester")])

    def _send_registry(self, recipients: Sequence[str]) -> None:
        """The directory snapshot, id high-water mark included."""
        self.multicast(DomainMessage(
            kind=MsgKind.REGISTRY_SYNC, source_group=0, target_group=0,
            data={"groups": self.registry.all_groups(),
                  "high_water": self.registry.high_water,
                  "for": list(recipients)},
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
            if info.factory_name and self.host.name in info.placement:
                # A replica of this processor's previous incarnation,
                # which the ring never saw leave (restarted before it was
                # excluded): this one hosts nothing, so it leaves the
                # placement as a departed host would.
                self.multicast(DomainMessage(
                    kind=MsgKind.REMOVE_REPLICA, source_group=0,
                    target_group=0,
                    data={"group_id": info.group_id,
                          "host": self.host.name}))
        self.registry.high_water = max(self.registry.high_water,
                                       msg.data["high_water"])
        self.synced = True
        buffered, self._presync_buffer = self._presync_buffer, []
        for queued in buffered:
            self._dispatch(queued)

    def _apply_group_announce(self, msg: DomainMessage) -> None:
        info: GroupInfo = msg.data["info"]
        if info.group_id >= FIRST_APPLICATION_GROUP:
            old = self.registry.get(info.group_id)
            if old is not None:
                # A redundant copy would undo the replica moves since the
                # first; a newer version is an upgrade, of the code only.
                if info.version > old.version:
                    self.registry.bump_version(old.group_id,
                                               info.factory_name)
                return
            if self.live_hosts:
                # Placed before a membership change that this delivery
                # follows: a host gone since then holds no replica.
                info = replace(info, placement=tuple(
                    info.live_replicas(self.live_hosts)))
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
        self._invocations_seen.pop(group_id, None)
        self._joining.pop(group_id, None)
        # The primary memory is keyed by group too; without this pop a
        # removed group's entry lived forever (the rm.last_primary leak).
        self._last_primary.pop(group_id, None)

    def _create_local_replica(self, info: GroupInfo, ready: bool,
                              added_at: int = 0) -> None:
        factory = self.factories.get(info.factory_name)
        if factory is None:
            raise ConfigurationError(f"no factory {info.factory_name!r}")
        servant = _call_factory(factory, self)
        self.replicas[info.group_id] = ReplicaRecord(
            group_id=info.group_id, servant=servant,
            version=info.version, ready=ready, added_at=added_at)

    def _apply_add_replica(self, msg: DomainMessage) -> None:
        group_id = msg.data["group_id"]
        new_host = msg.data["host"]
        info_before = self.registry.get(group_id)
        # A host that left before this was ordered was already pruned:
        # placing a replica there would keep it in the placement forever.
        if info_before is None or new_host not in self.live_hosts:
            return
        if msg.data.get("replace"):
            # A rolling-upgrade step replaces, never adds: the host's old
            # replica goes first, in this same delivery, so that no
            # membership change falls between the two halves, and the
            # donor is one of the others.
            if new_host not in info_before.placement:
                return
            self._apply_remove_replica(msg)
            info_before = self.registry.require(group_id)
        donor = info_before.primary(self.live_hosts)
        if not self.registry.add_replica(group_id, new_host):
            return
        info = self.registry.require(group_id)
        has_donor = donor is not None and donor != new_host
        if has_donor:
            self._joining.setdefault(group_id, {})[new_host] = (
                msg.timestamp, donor)
        if new_host == self.host.name and group_id not in self.replicas:
            self._create_local_replica(info, ready=not has_donor,
                                       added_at=msg.timestamp)
            if not has_donor:
                # Nothing to transfer (first/only replica): announce ready.
                self._announce_ready(group_id, info.version)
        if has_donor and donor == self.host.name:
            self._send_state(group_id, new_host, msg.timestamp)

    def _send_state(self, group_id: int, recipient: str, cut_ts: int) -> None:
        """Multicast this replica's state to the joiner that the
        ADD_REPLICA sequenced at ``cut_ts`` made."""
        record = self.replicas.get(group_id)
        if record is None:
            return
        self.stats["state_transfers_sent"] += 1
        transfer = DomainMessage(
            kind=MsgKind.STATE_TRANSFER, source_group=group_id,
            target_group=group_id,
            data={"group_id": group_id, "recipient": recipient,
                  "state": record.servant.get_state(),
                  "version": record.version, "cut_ts": cut_ts,
                  "dedup": self._invocations_seen[group_id].snapshot()})
        self._m_transfer_bytes.observe(transfer.size_hint())
        self.multicast(transfer)

    def _joined(self, group_id: int, host: str,
                cut_ts: Optional[int] = None) -> None:
        """``host`` waits for no state now (if ``cut_ts`` is given, only
        when its wait is the one the ADD_REPLICA at ``cut_ts`` began)."""
        joining = self._joining.get(group_id, {})
        if cut_ts in (None, joining.get(host, (None,))[0]):
            joining.pop(host, None)

    def _redonate_state(self) -> None:
        """A joiner whose donor left the group (or the ring) before its
        STATE_TRANSFER was sequenced gets the state from the group's
        primary now.  A snapshot taken after the cut is safe: the dedup
        table it carries makes the joiner skip the buffered invocations
        it already holds."""
        for group_id, joining in list(self._joining.items()):
            info = self.registry.get(group_id)
            placement = info.placement if info is not None else ()
            for host, (cut_ts, donor) in list(joining.items()):
                if host in self.live_hosts and donor in placement:
                    continue
                primary = info.primary(self.live_hosts) if info else None
                if host not in self.live_hosts or primary in (None, *joining):
                    del joining[host]   # or no replica left holds the state
                    continue
                joining[host] = (cut_ts, primary)
                if primary == self.host.name:
                    self._send_state(group_id, host, cut_ts)
            if not joining:
                del self._joining[group_id]

    def _apply_remove_replica(self, msg: DomainMessage) -> None:
        group_id = msg.data["group_id"]
        host_name = msg.data["host"]
        self.registry.remove_replica(group_id, host_name)
        self._joined(group_id, host_name)
        if host_name == self.host.name:
            self.replicas.pop(group_id, None)
        self._check_primary_changes()
        self._redonate_state()

    def _apply_state_transfer(self, msg: DomainMessage) -> None:
        group_id = msg.data["group_id"]
        self._joined(group_id, msg.data["recipient"], msg.data["cut_ts"])
        if msg.data["recipient"] != self.host.name:
            return
        record = self.replicas.get(group_id)
        # A transfer answers the ADD_REPLICA that made this replica, not
        # an earlier one for the same host (a step issued twice).
        if (record is None or record.ready
                or record.added_at != msg.data["cut_ts"]):
            return
        self.stats["state_transfers_received"] += 1
        record.servant.set_state(msg.data["state"])
        # record.version stays at the registry version it was created
        # with: during a live upgrade the donor may still run old code,
        # but the transferred *state* is version-compatible by contract.
        self._invocations_seen[group_id].install(msg.data["dedup"])
        record.ready = True
        info = self.registry.get(group_id)
        buffered, record.buffered = record.buffered, []
        if info is not None:
            # The snapshot covers everything ordered before the cut: the
            # engine adopts it there, as at a switch's cut (a passive one
            # records it as a checkpoint, so a later promotion replays
            # only what this replica logs *after* the transfer).  It
            # supersedes any checkpoint the replica logged while it
            # waited; the donor's log is NOT transferred: every entry
            # predates the cut by construction.
            record.log = record.checkpoint = None
            self._engines[info.style].adopt(info, record, msg.data["cut_ts"])
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
        reply, for the group's engine where the group is hosted (see
        ``Passive.apply_checkpoint``; an executing engine ignores one
        sequenced behind a live switch out of the passive styles)."""
        group_id = msg.source_group
        record = self.replicas.get(group_id)
        info = self.registry.get(group_id)
        if record is not None and info is not None:
            self._engines[info.style].apply_checkpoint(msg, info, record)

    # ==================================================================
    # Runtime style switching
    # ==================================================================

    def _apply_style_switch(self, msg: DomainMessage) -> None:
        """Apply a runtime replication-style change.

        The switch point is the message's position in the total order,
        so every processor partitions the group's history identically:
        operations ordered before it complete under the old engine (the
        closing quorum sweep lowers a dropped voting requirement, so
        nothing strands), operations after it run entirely under the
        new one.  A hosted replica is handed over at that cut, whatever
        the two styles: the old engine exports it as of the cut and the
        new one adopts it (see ``engines.ExecuteEverywhere.export``).
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
        if self._span_collector.enabled:
            self._span_collector.instant(
                f"style/{group_id}/{epoch}", "rm.style.switch",
                source=self.name, old=old_style.value, new=new_style.value)
        info = self.registry.require(group_id)
        record = self.replicas.get(group_id)
        replayed = 0
        if record is not None:
            old, new = self._engines[old_style], self._engines[new_style]
            replayed = old.export(info, record, new)
            new.adopt(info, record, msg.timestamp)
        fl = self.flight
        if fl.enabled:
            fl.record("flight.style_switch", rm=self.name, group=group_id,
                      old=old_style.value, new=new_style.value, epoch=epoch,
                      replayed=replayed)
        # Voting dropped: in-flight majority expectations can never
        # fill once only the leader speaks — votes_needed says so from
        # here on, which is all the sweep needs to know.
        self._response_filter.requorum(self.votes_now)

    # ==================================================================
    # Membership changes: failover and recovery
    # ==================================================================

    def _on_membership(self, members: Tuple[str, ...], ring_id) -> None:
        previous = self.live_hosts
        self.live_hosts = tuple(members)
        # The cut delivered or dropped everything sequenced on the old
        # ring: an own copy that left the queue without coming back to
        # retire its entry never will now.
        self._outbound_copies = {
            key: entry for key, entry in self._outbound_copies.items()
            if entry.queued}
        if not self.synced and not self._sync_requested:
            self._request_sync()
        # Registry synchronization for joiners: the lowest-named incumbent
        # (present in both the old and new membership) multicasts the
        # directory snapshot; every incumbent computes the same incumbent.
        if self.synced and previous:
            newcomers = [m for m in members if m not in previous]
            incumbents = [m for m in members if m in previous]
            if newcomers and incumbents and incumbents[0] == self.host.name:
                self._send_registry(newcomers)
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
        self.registry.prune_dead_hosts(members)
        self._check_primary_changes()
        self._redonate_state()
        # Re-decide every wait (every processor settles the same waits
        # at this point): fail those whose responder group lost every
        # replica, resume those a lowered quorum already satisfies.
        self._response_filter.requorum(self.votes_now)
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
                # A passive engine restores and replays, the semi-active
                # one re-transmits; executing everywhere needs nothing.
                self._engines[info.style].promote(
                    info, self.replicas[info.group_id])


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
