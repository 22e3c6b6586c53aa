"""Cross-domain egress: replicated clients invoking foreign domains.

Figure 1 of the paper shows replicated objects in one fault tolerance
domain invoking replicated objects in another *through the gateways*.
On the callee side this is the ordinary gateway path.  On the caller
side *every* replica of the invoking group executes the nested call,
yet exactly one TCP connection to the remote gateway must carry it.

The invoking group's current primary host (first live host of its
placement, which every processor derives identically) is the egress:
to the remote domain, the enhanced client of section 3.5, with an
:class:`~repro.core.client_interceptor.FtRequester`'s warm standby,
reissue on gateway loss and give-up rule.  Its client id (domain +
group) and request ids (from the operation id) are deterministic, so
when the egress host fails and the next one *reissues* the outstanding
calls, the remote domain's duplicate detection returns the cached
response instead of executing again.

The outcome — the remote reply, or ``COMM_FAILURE`` once the requester
gives up — is multicast back as a RESPONSE from the EXTERNAL
pseudo-group, so all local replicas resume at the same point in the
total order.  A one-way call is sent best-effort and not recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.client_interceptor import FtClientLayer
from ..core.identifiers import OperationId, UNUSED_CLIENT_ID
from ..errors import ConfigurationError
from ..iiop.giop import RequestMessage, encode_request
from ..iiop.ior import Ior
from ..iiop.service_context import ClientIdContext, SpanContext
from ..orb.dispatch import encode_arguments, reply_for_exception, reply_for_result
from ..orb.idl import Operation
from ..orb.orb import Orb, Stub
from ..orb.servant import NestedCall
from ..sim.world import Promise, World
from .messages import DomainMessage, MsgKind
from .naming import EXTERNAL_GROUP
from .replication import ReplicationMechanisms, _deterministic_request_id


@dataclass
class _EgressRecord:
    source_group: int
    op_id: OperationId
    call: NestedCall
    op: Operation
    request: RequestMessage
    sent: bool = False                 # transmitted from this host


class DomainEgress:
    """Per-processor egress client for cross-domain nested calls."""

    def __init__(self, rm: "ReplicationMechanisms", world: World) -> None:
        self.rm = rm
        self.world = world
        self.outstanding: Dict[Tuple[int, OperationId], _EgressRecord] = {}
        # A stub per (invoking group, remote IOR) and the host ORB under
        # them, built on the first transmission.  Multiplexed: a uid
        # keeps one connection per gateway, whatever the IOR; the
        # gateway tells its groups apart by (server group, client id).
        self._stubs: Dict[Tuple[int, str], Stub] = {}
        self._orb: Optional[Orb] = None
        self._issued = self._completed = 0
        rm.attach_egress(self)
        rm.on_membership_change(self.handle_membership)
        owner = f"egress@{rm.host.name}"
        rm.audit.register("egress.outstanding", lambda: len(self.outstanding),
                          floor=0, owner=owner, active=lambda: rm.alive)
        # Requesters stay warm between calls, like a connection cache.
        rm.audit.register("egress.requesters", lambda: len(self._stubs),
                          floor=None, owner=owner, active=lambda: rm.alive)

    @property
    def stats(self) -> Dict[str, int]:
        """Calls sent from here, their failover reissues, replies seen."""
        return {"issued": self._issued,
                "reissued": sum(stub.requester.stats["reissued"]
                                for stub in self._stubs.values()),
                "completed": self._completed}

    def operation_for(self, call: NestedCall) -> Operation:
        interface = self.rm.interfaces.get(call.interface)
        if interface is None:
            raise ConfigurationError(
                "a cross-domain NestedCall must name a locally registered "
                f"interface, not {call.interface!r}")
        return interface.operation(call.operation)

    # ------------------------------------------------------------------
    # Issue / reissue
    # ------------------------------------------------------------------

    def _client_uid(self, source_group: int) -> str:
        return f"egress/{self.rm.domain_name}/g{source_group}"

    def _am_egress(self, source_group: int) -> bool:
        info = self.rm.registry.get(source_group)
        return (info is not None
                and info.primary(self.rm.live_hosts) == self.rm.host.name)

    def issue(self, source_group: int, op_id: OperationId,
              call: NestedCall, trace=None) -> Operation:
        """Record the call, transmit it if we are the egress, return its
        operation.

        ``trace`` is an optional (trace_id, parent_span_id, hop) tuple;
        when present the request carries a trace service context so the
        remote domain's gateway continues the caller's causal trace
        across the domain boundary.
        """
        op = self.operation_for(call)
        request_id = _deterministic_request_id(op_id)
        # The lowest call of this group still outstanding: every host of
        # the group holds the same ones, so all marshal the same bytes.
        floor = min([request_id, *(
            record.request.request_id
            for (group, _), record in self.outstanding.items()
            if group == source_group)])
        contexts = [ClientIdContext(
            self._client_uid(source_group), floor=floor).to_service_context()]
        if trace is not None:
            contexts.append(SpanContext(
                trace[0], trace[1], hop=trace[2]).to_service_context())
        request = RequestMessage(
            request_id=request_id,
            response_expected=not op.oneway,
            object_key=Ior.from_string(call.target).primary_profile().object_key,
            operation=op.name,
            service_contexts=contexts,
            body=encode_arguments(op, call.args),
        )
        record = _EgressRecord(source_group, op_id, call, op, request)
        if not op.oneway:
            self.outstanding[(source_group, op_id)] = record
        if self._am_egress(source_group):
            self._transmit(record)
        return op

    def _stub(self, record: _EgressRecord) -> Stub:
        key = (record.source_group, record.call.target)
        stub = self._stubs.get(key)
        if stub is None:
            if self._orb is None:
                self._orb = Orb(self.world, self.rm.host)
            layer = FtClientLayer(
                self._orb, client_uid=self._client_uid(record.source_group))
            stub = self._stubs[key] = layer.string_to_object(
                record.call.target, self.rm.interfaces[record.call.interface],
                multiplexed=True)
        return stub

    def _transmit(self, record: _EgressRecord) -> None:
        record.sent = True
        self._issued += 1
        promise = Promise()
        if not record.op.oneway:
            promise.on_done(lambda done: self._answer(record, done))
        stub = self._stub(record)
        stub.requester.send(stub, record.op, record.request,
                            encode_request(record.request), promise)

    def handle_membership(self, live_hosts: Tuple[str, ...]) -> None:
        """Reissue outstanding calls for groups we just became egress of."""
        for record in list(self.outstanding.values()):
            if not record.sent and self._am_egress(record.source_group):
                self._transmit(record)

    # ------------------------------------------------------------------
    # Requester outcome -> local multicast
    # ------------------------------------------------------------------

    def _answer(self, record: _EgressRecord, promise: Promise) -> None:
        """Multicast the outcome as the remote reply: nothing upstream
        times out, so a give-up must be answered too."""
        if self.outstanding.get((record.source_group, record.op_id)) is not record:
            return                     # an earlier egress's reply came first
        request_id = record.request.request_id
        if promise.failed:
            iiop = reply_for_exception(request_id, promise.error)
        else:
            iiop = reply_for_result(request_id, record.op, promise.value)
        self.rm.multicast(DomainMessage(
            kind=MsgKind.RESPONSE,
            source_group=EXTERNAL_GROUP,
            target_group=record.source_group,
            client_id=UNUSED_CLIENT_ID,
            op_id=record.op_id,
            iiop=iiop,
            data={"responder": f"egress/{self.rm.host.name}"},
        ))

    def complete(self, source_group: int, op_id: OperationId) -> None:
        """Called by the RM when the response has been delivered."""
        if self.outstanding.pop((source_group, op_id), None) is not None:
            self._completed += 1
