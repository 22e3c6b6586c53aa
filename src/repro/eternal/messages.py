"""Messages multicast within a fault tolerance domain (paper Figure 4).

Every multicast message carries the Eternal/gateway header of Figure 4:
the TCP client identifier, the source group identifier, the target
group identifier, the operation identifier, and the message timestamp
(filled in from the Totem sequence number by the Replication Mechanisms
at the receiving end).  For messages between replicated objects within
the domain the TCP client identifier is the UNUSED sentinel, exactly as
in Figure 4(c).

Beyond the paper's two application kinds (IIOP invocation / IIOP
response), the infrastructure multicasts control messages for group
management, checkpointing, state transfer, and client-failure cleanup.
All control messages are *idempotent* at the receiver, which lets
replicated managers emit them redundantly without coordination.

An application message is its own record: the operation identifiers of
Figure 6 make any copy recognisable wherever it is delivered, so the
gateway group reads a client request off the gateway-sourced INVOCATION
(section 3.5) and leader-follower followers check the leader's ordering
off its nested INVOCATION — neither needs a shadow message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from ..core.identifiers import ClientId, OperationId, UNUSED_CLIENT_ID
from ..iiop.giop import RequestMessage, decode_request


class MsgKind(enum.Enum):
    # Application traffic (Figure 4).
    INVOCATION = "invocation"
    RESPONSE = "response"

    # Group management (idempotent control messages).
    GROUP_ANNOUNCE = "group_announce"      # create/replace a group's registry entry
    GROUP_REMOVE = "group_remove"
    ADD_REPLICA = "add_replica"
    REMOVE_REPLICA = "remove_replica"
    REPLICA_READY = "replica_ready"        # state transfer complete

    # Logging and recovery.
    CHECKPOINT = "checkpoint"              # passive checkpoint with no reply to ride
    STATE_TRANSFER = "state_transfer"      # donor -> joining replica

    # Gateway coordination (section 3.5).
    CLIENT_GONE = "client_gone"            # purge per-client gateway state

    # Replication-style management.
    STYLE_SWITCH = "style_switch"          # runtime replication-style change

    # Membership support.
    REGISTRY_SYNC = "registry_sync"        # directory snapshot for joiners
    REGISTRY_SYNC_REQUEST = "registry_sync_request"

    # Every dispatch and copy key hashes a kind: by identity, in C.
    __hash__ = object.__hash__


@dataclass
class DomainMessage:
    """One multicast message: Figure 4 header + payload.

    ``timestamp`` is zero in transit and stamped with the Totem sequence
    number by every receiver at delivery, so all receivers agree on it.
    ``iiop`` carries the encapsulated IIOP request or reply bytes for
    application traffic; control messages use ``data`` instead.
    """

    kind: MsgKind
    source_group: int
    target_group: int
    client_id: ClientId = UNUSED_CLIENT_ID
    op_id: Optional[OperationId] = None
    timestamp: int = 0
    iiop: bytes = b""
    data: Dict[str, Any] = field(default_factory=dict)
    # A client's INVOCATION: the lowest operation that client still
    # awaits, below which receivers forget its records (None: the
    # request carries no floor, and retires nothing).
    floor: Optional[OperationId] = None
    _size_hint: Optional[int] = field(default=None, repr=False, compare=False)
    # Causal-trace propagation (repro.obs.tracing): a
    # (trace_id, parent_span_id, hop) tuple, or None when tracing is
    # off or the originator was untraced; ``_trace_order`` carries the
    # open ordering-wait span id on RESPONSE messages.  Out-of-band
    # instrumentation: excluded from equality, from describe(), and —
    # deliberately — from size_hint(), so byte metrics and goldens are
    # identical whether or not tracing is enabled.  (On a real wire
    # this would ride in the GIOP service context, which the header
    # weight already approximates.)
    trace: Optional[tuple] = field(default=None, repr=False, compare=False)
    _trace_order: int = field(default=0, repr=False, compare=False)
    # The decoded form of ``iiop`` on an INVOCATION (see request()).
    _request: Optional[RequestMessage] = field(default=None, repr=False,
                                               compare=False)

    def request(self) -> RequestMessage:
        """The IIOP request this INVOCATION carries, decoded.

        ``iiop`` never changes and every receiver is handed this same
        message object, so the bytes are parsed by whoever asks first
        and the (read-only) result is shared: each simulated replica
        still executes the request, the host parses it once."""
        request = self._request
        if request is None:
            request = self._request = decode_request(self.iiop)
        return request

    def copy_key(self) -> tuple:
        """The Figure 4 header without its timestamp, plus the kind.

        Every replica of the sending group derives the same operation
        identifier (Figure 6), so this is equal on — and only on — the
        copies of one RESPONSE or one nested INVOCATION (or one
        manager-created group's GROUP_ANNOUNCE), wherever they
        are seen: at the receiver or in the sender's own send queue."""
        return (self.kind, self.source_group, self.target_group,
                self.client_id, self.op_id)

    def size_hint(self) -> int:
        """Approximate wire size, for network accounting.

        Counts the IIOP payload exactly and bytes-like values inside
        control data (checkpoints/state transfers carry real state), so
        traffic measurements reflect what a serialised message would
        weigh.  The payload never changes after construction (only
        ``timestamp`` is stamped at delivery, and it does not affect
        the weight), so the walk is done once and cached — messages
        multicast to N members are weighed once, not N times."""
        size = self._size_hint
        if size is None:
            size = self._size_hint = (40 + len(self.iiop)
                                      + (8 if self.floor is not None else 0)
                                      + _items_weight(self.data.values()))
        return size

    def describe(self) -> str:
        return (f"{self.kind.value} {self.source_group}->{self.target_group} "
                f"client={self.client_id!r} op={self.op_id} ts={self.timestamp}")


def _items_weight(items: Iterable[Any]) -> int:
    """Rough serialised weight of control-data values: bytes weigh their
    length, a str 8 more, a dict, list or tuple 8 plus its items,
    anything else 16 — an OperationId too, though it is a tuple.
    Leaves are weighed in the loop, so only a nested container costs a
    frame (a checkpoint carries a servant's whole state)."""
    weight = 0
    for item in items:
        kind = type(item)
        if kind is int:  # the common leaves are tested without a call
            weight += 16
        elif kind is str or isinstance(item, str):
            weight += 8 + len(item)
        elif isinstance(item, (bytes, bytearray)):
            weight += len(item)
        elif isinstance(item, dict):
            weight += 8 + _items_weight(item.values())
        elif (isinstance(item, (list, tuple))
              and not isinstance(item, OperationId)):
            weight += 8 + _items_weight(item)
        else:
            weight += 16
    return weight
