"""Invocation, response, and operation identifiers (paper Figure 6).

Eternal detects and suppresses duplicate invocations and duplicate
responses using identifiers built from the totally-ordered message
sequence numbers ("timestamps") assigned by Totem:

* an **operation identifier** ``(T_parent_inv, S_child)`` uniquely names
  one invocation/response pair: ``T_parent_inv`` is the timestamp of the
  message that carried the *parent* invocation into the invoking group,
  and ``S_child`` is the index of this nested invocation within the
  parent operation.  Because the parent timestamp is system-wide unique
  (total order) and every replica of the invoking group counts child
  invocations identically (deterministic execution), every replica
  derives the *same* operation identifier — which is precisely what
  makes duplicates recognisable.
* an **invocation identifier** ``(T_inv, (T_parent_inv, S_child))`` adds
  the timestamp of the message carrying this invocation itself;
* a **response identifier** ``(T_res, (T_parent_inv, S_child))`` adds
  the timestamp of the message carrying the response.

Invocations that originate *outside* the fault tolerance domain (from
unreplicated clients via a gateway) have no parent message; their
operation identifiers use ``parent_ts = EXTERNAL_PARENT_TS`` (0) and the
per-client request sequence as ``S_child``.  Uniqueness is then supplied
by the deduplication key, which — following section 3.2 of the paper —
combines the source group identifier, the TCP client identifier, and
the operation identifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple, Union

# Parent timestamp used for operations that enter the domain from outside
# (no parent invocation message exists).
EXTERNAL_PARENT_TS = 0

# The client-id wildcard used on messages between replicated objects
# within the fault tolerance domain ("some unused value" in Figure 4).
# Enhanced clients use string identifiers; gateway-assigned counters are
# small ints; this sentinel collides with neither.
UNUSED_CLIENT_ID: int = 0xFFFFFFFF

ClientId = Union[int, str]


class OperationId(NamedTuple):
    """(T_parent_inv, S_child): uniquely names an invocation/response pair.

    A tuple, so the dedup-key tables hash and compare it in C; its hash
    is ``hash((parent_ts, child_seq))``."""

    parent_ts: int
    child_seq: int

    def __str__(self) -> str:
        return f"op({self.parent_ts},{self.child_seq})"


@dataclass(frozen=True)
class InvocationId:
    """(T_inv, operation id) — stamped when the invocation is delivered."""

    ts: int
    op: OperationId

    def __str__(self) -> str:
        return f"inv[{self.ts},{self.op}]"


@dataclass(frozen=True)
class ResponseId:
    """(T_res, operation id) — stamped when the response is delivered."""

    ts: int
    op: OperationId

    def __str__(self) -> str:
        return f"res[{self.ts},{self.op}]"


# The deduplication key of section 3.2: destination routing and duplicate
# detection use the source group id, the TCP client id and the operation
# identifier collectively.
DedupKey = Tuple[int, ClientId, OperationId]


def dedup_key(source_group: int, client_id: ClientId,
              op: OperationId) -> DedupKey:
    """Build the (source group, client id, operation id) dedup key."""
    return (source_group, client_id, op)


def external_operation_id(request_seq: int) -> OperationId:
    """Operation id for a top-level invocation arriving from outside the
    domain: no parent message, sequenced by the client's request number."""
    return OperationId(EXTERNAL_PARENT_TS, request_seq)
