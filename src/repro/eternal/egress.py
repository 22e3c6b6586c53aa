"""Cross-domain egress: replicated clients invoking foreign domains.

Figure 1 of the paper shows replicated objects in one fault tolerance
domain invoking replicated objects in another *through the gateways*.
On the callee side this is the ordinary gateway path.  On the caller
side the problem is that *every* replica of the invoking group executes
the nested call, yet exactly one TCP connection to the remote gateway
must carry it.

The egress component solves this deterministically: the invoking
group's current primary host (first live host of its placement — a fact
every processor derives identically from the shared registry and
membership) acts as the egress and opens an enhanced-client connection
to the remote gateway.  The egress supplies a deterministic client
identifier (domain + group) and a deterministic request id derived from
the operation id, so if the egress host fails and another replica host
takes over and *reissues* the outstanding calls, the remote domain's
duplicate detection (keyed on client id + operation id, section 3.5)
suppresses re-execution and returns the cached response.

The remote reply is multicast back into the local domain as a RESPONSE
from the EXTERNAL pseudo-group, so all local replicas resume their
suspended executions at the same point in the total order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.identifiers import OperationId, UNUSED_CLIENT_ID
from ..errors import CommFailure, ConfigurationError
from ..iiop.giop import RequestMessage, encode_reply, encode_request
from ..iiop.ior import Ior
from ..iiop.service_context import ClientIdContext, SpanContext
from ..orb.connection import IiopClientConnection
from ..orb.dispatch import encode_arguments, reply_for_exception
from ..orb.idl import Operation
from ..orb.servant import NestedCall
from .messages import DomainMessage, MsgKind
from .naming import EXTERNAL_GROUP
from .replication import ReplicationMechanisms, _deterministic_request_id


@dataclass
class _EgressRecord:
    source_group: int
    op_id: OperationId
    call: NestedCall
    encoded: bytes
    request_id: int
    profiles: List[Tuple[str, int]]
    profile_index: int = 0
    attempts: int = 0
    completed: bool = False


class DomainEgress:
    """Per-processor egress client for cross-domain nested calls."""

    def __init__(self, rm: "ReplicationMechanisms", tcp) -> None:
        self.rm = rm
        self.tcp = tcp
        self.outstanding: Dict[Tuple[int, OperationId], _EgressRecord] = {}
        self._connections: Dict[Tuple[str, int], IiopClientConnection] = {}
        self.stats = {"issued": 0, "reissued": 0, "completed": 0}
        rm.attach_egress(self)

    # ------------------------------------------------------------------
    # Interface resolution for foreign targets
    # ------------------------------------------------------------------

    def operation_for(self, call: NestedCall) -> Operation:
        if call.interface is None:
            raise ConfigurationError(
                "cross-domain NestedCall must name its interface")
        interface = self.rm.interfaces.get(call.interface)
        if interface is None:
            raise ConfigurationError(
                f"interface {call.interface!r} not registered locally")
        return interface.operation(call.operation)

    # ------------------------------------------------------------------
    # Issue / reissue
    # ------------------------------------------------------------------

    def _client_uid(self, source_group: int) -> str:
        return f"egress/{self.rm.domain_name}/g{source_group}"

    def _am_egress(self, source_group: int) -> bool:
        info = self.rm.registry.get(source_group)
        if info is None:
            return False
        return info.primary(self.rm.live_hosts) == self.rm.host.name

    def issue(self, source_group: int, op_id: OperationId,
              call: NestedCall, trace=None) -> None:
        """Record the outstanding call; transmit if we are the egress.

        ``trace`` is an optional (trace_id, parent_span_id, hop) tuple;
        when present the request carries a trace service context so the
        remote domain's gateway continues the caller's causal trace
        across the domain boundary.
        """
        op = self.operation_for(call)
        ior = Ior.from_string(call.target)
        profiles = [p.address for p in ior.iiop_profiles()]
        object_key = ior.primary_profile().object_key
        request_id = _deterministic_request_id(op_id)
        contexts = [ClientIdContext(
            self._client_uid(source_group)).to_service_context()]
        if trace is not None:
            contexts.append(SpanContext(
                trace[0], trace[1], hop=trace[2]).to_service_context())
        request = RequestMessage(
            request_id=request_id,
            response_expected=not op.oneway,
            object_key=object_key,
            operation=op.name,
            service_contexts=contexts,
            body=encode_arguments(op, call.args),
        )
        record = _EgressRecord(
            source_group=source_group, op_id=op_id, call=call,
            encoded=encode_request(request), request_id=request_id,
            profiles=profiles)
        self.outstanding[(source_group, op_id)] = record
        if self._am_egress(source_group):
            self._transmit(record)

    def _transmit(self, record: _EgressRecord) -> None:
        if record.completed or not record.profiles:
            return
        if record.attempts >= 3 * len(record.profiles):
            # Give up, out loud: nothing upstream times out, so answer
            # in the remote domain's stead and every replica resumes
            # with the error at the same point in the total order.
            self._multicast_reply(record, reply_for_exception(
                record.request_id, CommFailure(
                    f"no gateway of {record.profiles} answered")))
            return
        address = record.profiles[record.profile_index % len(record.profiles)]
        connection = self._connections.get(address)
        if connection is None or not connection.usable:
            connection = IiopClientConnection(self.tcp, self.rm.host, address)
            self._connections[address] = connection
        record.attempts += 1
        self.stats["issued" if record.attempts == 1 else "reissued"] += 1

        def on_reply(reply) -> None:
            self._multicast_reply(record, encode_reply(reply))

        def on_failure(exc: Exception) -> None:
            if record.completed:
                return
            record.profile_index += 1
            self.rm.scheduler.call_soon(lambda: self._retransmit(record))

        connection.send_request(record.encoded, record.request_id,
                                on_reply, on_failure)

    def _retransmit(self, record: _EgressRecord) -> None:
        if not record.completed and self._am_egress(record.source_group):
            self._transmit(record)

    # ------------------------------------------------------------------
    # Remote reply -> local multicast
    # ------------------------------------------------------------------

    def _multicast_reply(self, record: _EgressRecord, iiop: bytes) -> None:
        if record.completed:
            return
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
        record = self.outstanding.pop((source_group, op_id), None)
        if record is not None:
            record.completed = True
            self.stats["completed"] += 1

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def handle_membership(self, live_hosts: Tuple[str, ...]) -> None:
        """Reissue outstanding calls for groups we just became egress of."""
        for record in list(self.outstanding.values()):
            if not record.completed and self._am_egress(record.source_group):
                self._transmit(record)
