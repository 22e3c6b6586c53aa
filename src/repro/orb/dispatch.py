"""Marshalling-level request/reply dispatch shared by ORB and Eternal.

Both the plain ORB server (an unreplicated CORBA server outside any
fault tolerance domain) and the Eternal Replication Mechanisms (which
dispatch delivered IIOP requests to local replicas) perform the same
steps: unmarshal arguments per the interface definition, invoke the
servant method, and marshal a reply — mapping Python exceptions to
CORBA user/system exceptions.  Keeping the logic here guarantees the
two paths produce byte-identical replies for identical inputs, which is
what lets the gateway forward server-replica replies verbatim to
unreplicated clients.
"""

from __future__ import annotations

import inspect
from typing import Any, List, Sequence, Tuple

from ..errors import (
    BadOperation,
    CorbaSystemException,
    InvocationFailure,
    MarshalError,
)
from ..iiop.giop import ReplyMessage, ReplyStatus, RequestMessage, encode_reply
from ..iiop.types import TC_STRING, TC_ULONG, Codec
from .idl import Operation
from .servant import Servant


def decode_arguments(op: Operation, request: RequestMessage,
                     little_endian: bool = False) -> List[Any]:
    """Unmarshal the request body per the operation's parameter list."""
    return op.arguments_codec.decode(request.body, little_endian)


def encode_arguments(op: Operation, args: Sequence[Any]) -> bytes:
    """Marshal arguments into a request body (big-endian)."""
    return op.arguments_codec.encode(args)


def encode_result_body(op: Operation, value: Any) -> bytes:
    return op.result_codec.encode((value,))


# Decoded system exceptions keep their class, so re-encoding keeps the id.
_SYSTEM_EXCEPTIONS = {f"IDL:omg.org/CORBA/{cls.__name__}:1.0": cls
                      for cls in CorbaSystemException.__subclasses__()}

# Exception reply bodies: (repository id, detail) of a user exception,
# (repository id, minor code) of a system exception.
_USER_EXCEPTION = Codec([TC_STRING, TC_STRING])
_SYSTEM_EXCEPTION = Codec([TC_STRING, TC_ULONG])


def decode_result(op: Operation, reply: ReplyMessage,
                  little_endian: bool = False) -> Any:
    """Turn a Reply into a return value or raise the carried exception."""
    if reply.status == ReplyStatus.NO_EXCEPTION:
        return op.result_codec.decode(reply.body, little_endian)[0]
    if reply.status == ReplyStatus.USER_EXCEPTION:
        repo_id, detail = _USER_EXCEPTION.decode(reply.body, little_endian)
        raise InvocationFailure(repo_id, detail)
    if reply.status == ReplyStatus.SYSTEM_EXCEPTION:
        repo_id, minor = _SYSTEM_EXCEPTION.decode(reply.body, little_endian)
        raise _SYSTEM_EXCEPTIONS.get(repo_id, CorbaSystemException)(
            repo_id, minor=minor)
    raise MarshalError(f"unsupported reply status {reply.status}")


def reply_for_exception(request_id: int, exc: Exception) -> bytes:
    """Encode the Reply bytes reporting ``exc`` for ``request_id``."""
    if isinstance(exc, InvocationFailure):
        status = ReplyStatus.USER_EXCEPTION
        body = _USER_EXCEPTION.encode((exc.repo_id, exc.detail))
    else:
        status = ReplyStatus.SYSTEM_EXCEPTION
        body = _SYSTEM_EXCEPTION.encode((
            f"IDL:omg.org/CORBA/{type(exc).__name__}:1.0",
            getattr(exc, "minor", 0)))
    return encode_reply(ReplyMessage(request_id=request_id, status=status,
                                     body=body))


def reply_for_result(request_id: int, op: Operation, value: Any) -> bytes:
    """Encode the successful Reply bytes for ``request_id``.

    A result that does not fit the operation's declared type (a long
    that overflowed, say) is answered as the MarshalError system
    exception it raised.  It is the servant's fault, not the caller's,
    and every replica computes the same reply, so the server neither
    stops nor hangs up."""
    try:
        body = encode_result_body(op, value)
    except MarshalError as exc:
        return reply_for_exception(request_id, exc)
    return encode_reply(ReplyMessage(
        request_id=request_id, status=ReplyStatus.NO_EXCEPTION, body=body))


def start_invocation(servant: Servant, request: RequestMessage,
                     little_endian: bool = False) -> Tuple[Operation, Any]:
    """Begin executing a request against a servant.

    Returns ``(operation, outcome)`` where ``outcome`` is either the
    final return value or a *generator* (the servant needs nested
    invocations; the caller — the Replication Mechanisms — must drive
    it).  Marshalling or application errors propagate as exceptions for
    the caller to convert via :func:`reply_for_exception`.
    """
    interface = servant.interface
    op = interface.operation(request.operation)
    args = decode_arguments(op, request, little_endian=little_endian)
    method = getattr(servant, op.name, None)
    if method is None:
        raise BadOperation(
            f"servant {type(servant).__name__} lacks method {op.name!r}")
    outcome = method(*args)
    return op, outcome


def run_to_completion(servant: Servant, request: RequestMessage,
                      little_endian: bool = False) -> Tuple[Operation, Any]:
    """Execute a request that must not perform nested invocations.

    Plain (non-Eternal) servers use this: a generator outcome means the
    servant wanted a nested call, which an unreplicated server in this
    reproduction does not support.
    """
    op, outcome = start_invocation(servant, request, little_endian)
    if inspect.isgenerator(outcome):
        raise CorbaSystemException(
            "NO_IMPLEMENT: nested invocations require the fault tolerance "
            "infrastructure")
    return op, outcome
