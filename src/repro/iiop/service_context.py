"""Vendor service contexts used by the enhanced client layer.

Section 3.5 of the paper: the thin client-side interception layer
inserts a *unique TCP/IP client identifier* into the service context
field of each IIOP request so that any gateway — not just the one the
client first connected to — can recognise the client and detect
reinvocations.  ORBs that do not understand the context ignore it.

The context id uses the vendor range; the body is a CDR encapsulation
carrying the client's globally unique identifier string, an
incarnation number (bumped when the client process restarts, so a
restarted client is not mistaken for its former self) and the client's
*floor*: the lowest request id it still awaits a reply for, so that
the domain may forget what it keeps for the requests below it (the
role of the retention id in FT-CORBA's ``FT_REQUEST`` context).  The
older two-field body decodes with floor 0: it retires nothing.  The
floor is the last field, at a 4-aligned offset, so a client marshals
its uid and incarnation once (:meth:`ClientIdContext.unstamped`) and
each request's context is those bytes and its floor (:func:`stamped`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, List, Optional

from ..errors import MarshalError
from .giop import RequestMessage, ServiceContext
from .types import TC_BOOLEAN, TC_STRING, TC_ULONG, Codec

# "ET" vendor prefix, service 0x01: Eternal client identification.
ETERNAL_CLIENT_ID_CONTEXT = 0x45540001

# "ET" vendor prefix, service 0x02: Eternal causal-trace propagation.
TRACE_CONTEXT = 0x45540002

# Each context's data is a CDR encapsulation: its byte-order octet, then
# the fields, aligned from the encapsulation's first octet.
_CLIENT_ID = Codec([TC_BOOLEAN, TC_STRING, TC_ULONG, TC_ULONG])
_CLIENT_ID_OLD = Codec([TC_BOOLEAN, TC_STRING, TC_ULONG])
_ULONG_BE = struct.Struct(">L")
_SPAN = Codec([TC_BOOLEAN, TC_STRING, TC_ULONG, TC_ULONG])


def _open(codec: Codec, data: bytes) -> List[Any]:
    """Decode an encapsulation in the byte order its first octet names;
    the fields after that octet."""
    if not data:
        raise MarshalError("empty CDR encapsulation")
    return codec.decode(data, data[0] != 0)[1:]


@dataclass(frozen=True, slots=True)
class ClientIdContext:
    """Unique client identity carried end-to-end in IIOP requests, with
    the client's floor (0: none)."""

    client_uid: str
    incarnation: int = 1
    floor: int = 0

    def to_service_context(self) -> ServiceContext:
        return stamped(self.unstamped(), self.floor)

    def unstamped(self) -> bytes:
        """This context's data up to its floor: the old two-field form,
        whose incarnation ends at a 4-aligned offset."""
        return _CLIENT_ID_OLD.encode(
            (False, self.client_uid, self.incarnation))

    @staticmethod
    def from_bytes(data: bytes) -> "ClientIdContext":
        try:
            uid, incarnation, floor = _open(_CLIENT_ID, data)
        except MarshalError:
            (uid, incarnation), floor = _open(_CLIENT_ID_OLD, data), 0
        return ClientIdContext(client_uid=uid, incarnation=incarnation,
                               floor=floor)


@dataclass(frozen=True)
class SpanContext:
    """Causal-trace context carried hop to hop in IIOP requests.

    ``trace_id`` is derived deterministically from the originator
    (``client_uid # incarnation / request_id`` for enhanced clients,
    a gateway-rooted name for plain ones), so seeded reruns produce
    byte-identical traces.  ``span_id`` is the sender-side span the
    receiver should parent its own spans under; ``hop`` counts domain
    boundaries crossed (bumped by the egress on cross-domain calls).
    """

    trace_id: str
    span_id: int
    hop: int = 0

    def to_service_context(self) -> ServiceContext:
        return ServiceContext(TRACE_CONTEXT, _SPAN.encode(
            (False, self.trace_id, self.span_id, self.hop)))

    @staticmethod
    def from_bytes(data: bytes) -> "SpanContext":
        trace_id, span_id, hop = _open(_SPAN, data)
        return SpanContext(trace_id=trace_id, span_id=span_id, hop=hop)


def stamped(unstamped: bytes, floor: int) -> ServiceContext:
    """The client-id context whose data up to the floor is ``unstamped``
    (:meth:`ClientIdContext.unstamped`, big-endian) and whose floor is
    ``floor``."""
    return ServiceContext(ETERNAL_CLIENT_ID_CONTEXT,
                          unstamped + _ULONG_BE.pack(floor))


def extract_client_id(request: RequestMessage) -> Optional[ClientIdContext]:
    """Pull the Eternal client id out of a request, if present.

    Returns None for plain (non-enhanced) clients; malformed contexts
    are treated as absent, mirroring the CORBA rule that unintelligible
    service contexts are ignored.
    """
    raw = request.find_context(ETERNAL_CLIENT_ID_CONTEXT)
    if raw is None:
        return None
    try:
        return ClientIdContext.from_bytes(raw)
    except MarshalError:
        return None


def extract_trace_context(request: RequestMessage) -> Optional[SpanContext]:
    """Pull the causal-trace context out of a request, if present.

    Absent for plain clients (the gateway then roots the trace itself);
    malformed contexts are treated as absent, like ``extract_client_id``.
    """
    raw = request.find_context(TRACE_CONTEXT)
    if raw is None:
        return None
    try:
        return SpanContext.from_bytes(raw)
    except MarshalError:
        return None
