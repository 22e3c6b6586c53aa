"""Deterministic servant execution with nested invocations.

A servant method either returns a value directly, or — when it must
invoke another replicated object — is written as a generator that
yields :class:`~repro.orb.servant.NestedCall` descriptors (Figure 6's
"parent invocation" performing "child operations").  The Replication
Mechanisms drive these generators: each yield suspends the execution
until the matching response is delivered in total order, at which point
every replica resumes at the same logical instant with the same value.

Child invocations are numbered within the parent operation
(``S_child`` of Figure 6) by a per-execution counter, so all replicas
of the invoking group derive identical operation identifiers for every
nested call.
"""

from __future__ import annotations

import inspect
from typing import Any, Optional

from ..core.identifiers import OperationId
from ..errors import BadOperation
from ..iiop.giop import RequestMessage
from ..orb.dispatch import decode_arguments
from ..orb.idl import Interface, Operation
from ..orb.servant import NestedCall, Servant


class Outcome:
    """Result of advancing an execution one step."""

    DONE = "done"
    NESTED = "nested"
    ERROR = "error"

    def __init__(self, kind: str, value: Any = None,
                 nested: Optional[NestedCall] = None,
                 error: Optional[Exception] = None) -> None:
        self.kind = kind
        self.value = value
        self.nested = nested
        self.error = error

    @staticmethod
    def done(value: Any) -> "Outcome":
        return Outcome(Outcome.DONE, value=value)

    @staticmethod
    def nested_call(call: NestedCall) -> "Outcome":
        return Outcome(Outcome.NESTED, nested=call)

    @staticmethod
    def failed(error: Exception) -> "Outcome":
        return Outcome(Outcome.ERROR, error=error)


class Execution:
    """One in-progress invocation on one local replica.

    The lifecycle is: :meth:`start`, then zero or more
    (:meth:`current_child_op_id`, wait for response,
    :meth:`resume`/:meth:`resume_error`) rounds, each producing an
    :class:`Outcome`.
    """

    def __init__(self, servant: Servant, interface: Interface,
                 request: RequestMessage, parent_ts: int) -> None:
        self.servant = servant
        self.interface = interface
        self.request = request
        self.parent_ts = parent_ts          # T_parent_inv of Figure 6
        self.op: Optional[Operation] = None  # resolved in start()
        self._generator = None
        self._child_counter = 0
        self.finished = False
        # Open ``rm.execute`` span id while this execution is in flight
        # (0 when tracing is disabled or the invocation was untraced).
        self.trace_span = 0
        # silent: the terminal response must not be multicast (style
        # catch-up replay on a replica that never responds for this op).
        # Its nested calls still are, even where a leader-follower
        # follower would normally stay quiet — the cached responses
        # exist only in peers' dedup tables and must be solicited again.
        self.silent = False

    # ------------------------------------------------------------------

    def start(self) -> Outcome:
        """Decode arguments and run the servant method to its first
        suspension point (or completion).

        Resolution, unmarshalling and application errors all surface as
        ERROR outcomes (never exceptions), so a malformed request from
        outside the domain can only produce an exception *reply*."""
        try:
            self.op = self.interface.operation(self.request.operation)
            args = decode_arguments(self.op, self.request,
                                    little_endian=self.request.little_endian)
            method = getattr(self.servant, self.op.name, None)
            if method is None:
                raise BadOperation(
                    f"servant {type(self.servant).__name__} lacks "
                    f"method {self.op.name!r}")
            result = method(*args)
        except Exception as exc:
            self.finished = True
            return Outcome.failed(exc)
        if inspect.isgenerator(result):
            self._generator = result
            return self._advance(lambda: next(self._generator))
        self.finished = True
        return Outcome.done(result)

    def resume(self, value: Any) -> Outcome:
        """Feed a nested-call result back into the servant."""
        return self._advance(lambda: self._generator.send(value))

    def resume_error(self, error: Exception) -> Outcome:
        """Raise a nested-call failure inside the servant."""
        return self._advance(lambda: self._generator.throw(error))

    def _advance(self, step) -> Outcome:
        try:
            yielded = step()
        except StopIteration as stop:
            self.finished = True
            return Outcome.done(stop.value)
        except Exception as exc:
            self.finished = True
            return Outcome.failed(exc)
        if not isinstance(yielded, NestedCall):
            self.finished = True
            return Outcome.failed(BadOperation(
                f"servant yielded {type(yielded).__name__}; "
                "only NestedCall may be yielded"))
        return Outcome.nested_call(yielded)

    # ------------------------------------------------------------------

    def next_child_op_id(self) -> OperationId:
        """Allocate the next child operation id (T_parent_inv, S_child).

        Deterministic: every replica counts the parent's children in
        the same order because resumptions follow the total order.
        """
        self._child_counter += 1
        return OperationId(self.parent_ts, self._child_counter)
