"""Servant base class and the checkpointable-state protocol.

A servant implements an :class:`~repro.orb.idl.Interface` with ordinary
Python methods.  Two extra hooks make servants replicable by Eternal's
Logging-Recovery Mechanisms (paper section 2.2, state transfer):

* :meth:`get_state` — capture the object's application state;
* :meth:`set_state` — install previously captured state.

The defaults snapshot every public, non-callable instance attribute
(deep-copied so a checkpoint is immune to later mutation), which covers
typical value-holding servants; servants with richer state override the
pair.

A servant method that needs to make a *nested invocation* on another
replicated object writes itself as a generator and yields the call
descriptor (see :class:`NestedCall`); the Replication Mechanisms drive
the generator and send the result back in.  This is how the paper's
Figure 6 scenario (group A's method invoking group B) is expressed.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from .idl import Interface

_IMMUTABLE_SCALARS = (type(None), bool, int, float, str, bytes, complex)


def _is_immutable(value: Any) -> bool:
    """True when ``value`` is transitively immutable, so sharing it
    between a checkpoint and a live servant cannot leak mutation."""
    if isinstance(value, _IMMUTABLE_SCALARS):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_is_immutable(item) for item in value)
    return False


def _snapshot(state: Dict[str, Any]) -> Dict[str, Any]:
    """Detached copy of a state dict.

    Immutable-only dicts (the common counter/value servant case) are
    shared as-is — no copy can be observed.  Mutable state is detached
    via a pickle round-trip, which is substantially faster than
    ``copy.deepcopy`` for plain data; unpicklable state falls back to
    deepcopy, preserving the old behaviour exactly.
    """
    if all(_is_immutable(value) for value in state.values()):
        return dict(state)
    try:
        return pickle.loads(pickle.dumps(state, pickle.HIGHEST_PROTOCOL))
    except Exception:
        return copy.deepcopy(state)


@dataclass(frozen=True)
class NestedCall:
    """Yielded by a servant generator to invoke another object.

    ``target`` names the callee: either a stringified IOR (cross-domain,
    routed through the remote domain's gateway) or a group name that the
    hosting infrastructure resolves in its own domain.  ``interface``
    names the callee's interface; it is required for IOR targets (the
    local infrastructure cannot look a foreign interface up by group)
    and ignored for in-domain targets.
    """

    target: str
    operation: str
    args: Sequence[Any] = ()
    interface: Optional[str] = None


class Servant:
    """Base class for application objects.

    Subclasses set the class attribute ``interface`` and define one
    method per operation.  Methods receive the operation's declared
    parameters positionally and return the declared result.
    """

    interface: Interface

    def get_state(self) -> Dict[str, Any]:
        """Snapshot application state for checkpointing/state transfer.

        The snapshot is detached from the servant (immune to later
        mutation), but immutable-only state dicts skip copying
        entirely and mutable state uses a pickle round-trip instead of
        ``copy.deepcopy`` — see :func:`_snapshot`.
        """
        return _snapshot({
            name: value for name, value in vars(self).items()
            if not name.startswith("_") and not callable(value)
        })

    def set_state(self, state: Dict[str, Any]) -> None:
        """Install a snapshot produced by :meth:`get_state`.

        The installed values are detached from the caller's dict, so a
        checkpoint can be installed into several replicas (or retained
        in a log) without aliasing.
        """
        for name, value in _snapshot(state).items():
            setattr(self, name, value)
