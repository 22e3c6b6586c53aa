"""The paper's primary contribution: gateways to fault tolerance domains.

* :class:`Gateway` — the TCP <-> totally-ordered-multicast bridge on a
  domain's edge, with duplicate response suppression, per-server-group
  client-id counters, and the redundant-gateway group that reads every
  request off its forwarder's INVOCATION (paper sections 3.1-3.5).
* :class:`GatewayPool` / :class:`CircuitBreaker` — the gateway farm:
  consistent-hash sharding of the client population across N gateways,
  pool-aware multi-profile IORs, admission control, and per-gateway
  circuit breakers (section 3.5 scaled out for capacity).
* :class:`FtClientLayer` / :class:`FtRequester` — the thin client-side
  interception layer of section 3.5 (multi-profile traversal, unique
  client ids, reissue on failover).
* :mod:`~repro.core.identifiers` — Figure 6 invocation/response/
  operation identifiers.
* :class:`DuplicateSuppressor` — first-wins and majority-vote response
  filtering (section 3.3).
* :mod:`~repro.core.headers` — the Figure 4 wire headers.
"""

from .client_interceptor import FtClientLayer, FtRequester, MuxRequester
from .duplicates import DuplicateSuppressor
from .gateway import Gateway
from .gateway_pool import CircuitBreaker, GatewayPool
from .headers import (
    decode_ft_header,
    encode_ft_header,
    encode_multicast_message,
    header_overhead,
    intra_domain_header,
)
from .identifiers import (
    ClientId,
    DedupKey,
    EXTERNAL_PARENT_TS,
    InvocationId,
    OperationId,
    ResponseId,
    UNUSED_CLIENT_ID,
    dedup_key,
    external_operation_id,
)

__all__ = [
    "CircuitBreaker",
    "ClientId",
    "DedupKey",
    "DuplicateSuppressor",
    "EXTERNAL_PARENT_TS",
    "FtClientLayer",
    "FtRequester",
    "Gateway",
    "GatewayPool",
    "MuxRequester",
    "InvocationId",
    "OperationId",
    "ResponseId",
    "UNUSED_CLIENT_ID",
    "decode_ft_header",
    "dedup_key",
    "encode_ft_header",
    "encode_multicast_message",
    "external_operation_id",
    "header_overhead",
    "intra_domain_header",
]
