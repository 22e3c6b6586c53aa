"""Interface definitions: a small Python DSL replacing OMG IDL text.

A CORBA interface is a named set of operations with typed parameters
and results.  The reproduction declares interfaces directly in Python
(DESIGN.md section 6 — no IDL compiler), e.g.::

    ACCOUNT = Interface("Account", [
        Operation("deposit", [Param("amount", TC_LONG)], TC_LONG),
        Operation("balance", [], TC_LONG),
        Operation("audit", [], TC_VOID, oneway=True),
    ])

Both the client stub and the server-side dispatch consult the same
:class:`Interface` object, so marshalling is symmetric by construction:
each :class:`Operation` compiles its argument and result codecs once
(:class:`~repro.iiop.types.Codec`) and every body on either side goes
through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence

from ..errors import BadOperation, ConfigurationError
from ..iiop.types import TC_VOID, Codec, TypeCode


@dataclass(frozen=True)
class Param:
    """One operation parameter (in-parameters only; see DESIGN.md)."""

    name: str
    typecode: TypeCode


@dataclass(frozen=True)
class Operation:
    """One operation of an interface."""

    name: str
    params: Sequence[Param] = ()
    result: TypeCode = TC_VOID
    oneway: bool = False

    def __post_init__(self):
        if self.oneway and self.result is not TC_VOID:
            raise ConfigurationError(
                f"oneway operation {self.name!r} cannot return a value")

    # Compiled on first use, then kept: an operation's signature fixes
    # the layout of its request and reply bodies.

    @cached_property
    def arguments_codec(self) -> Codec:
        """Marshals the argument list (a Request body)."""
        return Codec([p.typecode for p in self.params])

    @cached_property
    def result_codec(self) -> Codec:
        """Marshals the one-element result list (a normal Reply body)."""
        return Codec([self.result])


class Interface:
    """A named collection of operations with a CORBA repository id."""

    def __init__(self, name: str, operations: Sequence[Operation],
                 repo_id: Optional[str] = None) -> None:
        self.name = name
        self.repo_id = repo_id or f"IDL:repro/{name}:1.0"
        self._operations: Dict[str, Operation] = {}
        for op in operations:
            if op.name in self._operations:
                raise ConfigurationError(
                    f"duplicate operation {op.name!r} in interface {name}")
            self._operations[op.name] = op

    @property
    def operations(self) -> Dict[str, Operation]:
        return dict(self._operations)

    def operation(self, name: str) -> Operation:
        op = self._operations.get(name)
        if op is None:
            raise BadOperation(f"{self.name} has no operation {name!r}")
        return op

    def __contains__(self, name: str) -> bool:
        return name in self._operations

    def __repr__(self) -> str:
        return f"<Interface {self.name} ops={sorted(self._operations)}>"
