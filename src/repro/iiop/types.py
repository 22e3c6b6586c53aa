"""Type codes, and the codecs compiled from them for operation bodies.

The reproduction declares CORBA interfaces with a small Python DSL
(:mod:`repro.orb.idl`) rather than parsing OMG IDL text.  Each parameter
and result carries one of these type codes.  An operation's signature
fixes the layout of its request and reply bodies, so it is compiled
once into a :class:`Codec` that marshals the whole parameter list (or
the result) in one pass; the type codes' own ``encode``/``decode``
methods, over the generic CDR streams, serve only what the codec hands
back to them (enum, sequence, struct) and their own elements.

Supported kinds cover what the paper's application classes (stock
trading, banking) and the manager interfaces need: void, boolean,
octet, short/long/longlong (+ unsigned), float/double, string, octet
sequences, typed sequences, and named structs.
"""

from __future__ import annotations

import struct
from itertools import groupby
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import MarshalError
from .cdr import (
    PADDING,
    ULONG,
    Buffer,
    CdrInputStream,
    CdrOutputStream,
    encode_text,
    read_octets_at,
    read_string_at,
)


class TypeCode:
    """Base class; concrete kinds implement encode/decode."""

    kind = "abstract"
    #: The ``struct`` format character of a fixed-size kind, whose size
    #: is also its alignment; None for every other kind.
    fmt: Optional[str] = None

    def encode(self, out: CdrOutputStream, value: Any) -> None:
        raise NotImplementedError

    def decode(self, stream: CdrInputStream) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<TypeCode {self.kind}>"


class _PrimitiveTC(TypeCode):
    """A kind the CDR streams read and write with one method each."""

    def __init__(self, kind: str, fmt: Optional[str],
                 write: Callable[[CdrOutputStream, Any], None],
                 read: Callable[[CdrInputStream], Any]) -> None:
        self.kind = kind
        self.fmt = fmt
        self._write = write
        self._read = read

    def encode(self, out: CdrOutputStream, value: Any) -> None:
        self._write(out, value)

    def decode(self, stream: CdrInputStream) -> Any:
        return self._read(stream)


class _VoidTC(TypeCode):
    kind = "void"

    def encode(self, out: CdrOutputStream, value: Any) -> None:
        if value is not None:
            raise MarshalError(f"void result must be None, got {value!r}")

    def decode(self, stream: CdrInputStream) -> Any:
        return None


class _OctetsTC(TypeCode):
    kind = "octets"

    def encode(self, out: CdrOutputStream, value: Any) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise MarshalError(f"octets value must be bytes, got {type(value).__name__}")
        out.write_octets(bytes(value))

    def decode(self, stream: CdrInputStream) -> Any:
        return stream.read_octets()


_Out, _In = CdrOutputStream, CdrInputStream

TC_VOID = _VoidTC()
TC_BOOLEAN = _PrimitiveTC("boolean", "?", _Out.write_boolean, _In.read_boolean)
TC_OCTET = _PrimitiveTC("octet", "B", _Out.write_octet, _In.read_octet)
TC_SHORT = _PrimitiveTC("short", "h", _Out.write_short, _In.read_short)
TC_USHORT = _PrimitiveTC("ushort", "H", _Out.write_ushort, _In.read_ushort)
TC_LONG = _PrimitiveTC("long", "i", _Out.write_long, _In.read_long)
TC_ULONG = _PrimitiveTC("ulong", "I", _Out.write_ulong, _In.read_ulong)
TC_LONGLONG = _PrimitiveTC("longlong", "q", _Out.write_longlong,
                           _In.read_longlong)
TC_ULONGLONG = _PrimitiveTC("ulonglong", "Q", _Out.write_ulonglong,
                            _In.read_ulonglong)
TC_FLOAT = _PrimitiveTC("float", "f", _Out.write_float, _In.read_float)
TC_DOUBLE = _PrimitiveTC("double", "d", _Out.write_double, _In.read_double)
TC_STRING = _PrimitiveTC("string", None, _Out.write_string, _In.read_string)
TC_OCTETS = _OctetsTC()


class EnumTC(TypeCode):
    """CORBA enum: encoded as an unsigned long ordinal.

    The Python representation is the member *string*, keeping servants
    free of generated enum classes; unknown members are rejected on
    both paths (a wire ordinal beyond the member list is malformed).
    """

    kind = "enum"

    def __init__(self, name: str, members: Sequence[str]) -> None:
        if not members:
            raise MarshalError(f"enum {name} needs at least one member")
        if len(set(members)) != len(members):
            raise MarshalError(f"enum {name} has duplicate members")
        self.name = name
        self.members = list(members)
        self._ordinal = {member: i for i, member in enumerate(members)}

    def encode(self, out: CdrOutputStream, value: Any) -> None:
        ordinal = self._ordinal.get(value)
        if ordinal is None:
            raise MarshalError(
                f"{value!r} is not a member of enum {self.name} "
                f"({self.members})")
        out.write_ulong(ordinal)

    def decode(self, stream: CdrInputStream) -> str:
        ordinal = stream.read_ulong()
        if ordinal >= len(self.members):
            raise MarshalError(
                f"ordinal {ordinal} out of range for enum {self.name}")
        return self.members[ordinal]

    def __repr__(self) -> str:
        return f"<TypeCode enum {self.name}>"


class SequenceTC(TypeCode):
    """sequence<element>: ulong count then elements."""

    kind = "sequence"

    def __init__(self, element: TypeCode) -> None:
        self.element = element

    def encode(self, out: CdrOutputStream, value: Any) -> None:
        if not isinstance(value, (list, tuple)):
            raise MarshalError(f"sequence value must be list/tuple, got {type(value).__name__}")
        out.write_ulong(len(value))
        for item in value:
            self.element.encode(out, item)

    def decode(self, stream: CdrInputStream) -> List[Any]:
        count = stream.read_ulong()
        return [self.element.decode(stream) for _ in range(count)]

    def __repr__(self) -> str:
        return f"<TypeCode sequence<{self.element.kind}>>"


class StructTC(TypeCode):
    """Named struct: fields encoded in declaration order.

    Python representation is a plain dict keyed by field name, which
    keeps application servants free of generated classes.
    """

    kind = "struct"

    def __init__(self, name: str, fields: Sequence[Tuple[str, TypeCode]]) -> None:
        self.name = name
        self.fields = list(fields)

    def encode(self, out: CdrOutputStream, value: Any) -> None:
        if not isinstance(value, dict):
            raise MarshalError(f"struct {self.name} expects a dict, got {type(value).__name__}")
        for field_name, tc in self.fields:
            if field_name not in value:
                raise MarshalError(f"struct {self.name} missing field {field_name!r}")
            tc.encode(out, value[field_name])

    def decode(self, stream: CdrInputStream) -> Dict[str, Any]:
        return {name: tc.decode(stream) for name, tc in self.fields}

    def __repr__(self) -> str:
        return f"<TypeCode struct {self.name}>"


# ----------------------------------------------------------------------
# Compiled codecs
# ----------------------------------------------------------------------

# Step kinds of a compiled codec: a run of fixed-size values, the kinds
# with steps of their own, and the rest, handed to their TypeCode.
_RUN, _STRING, _OCTETS, _VOID, _BY_TYPECODE = range(5)
_STEP_OF_KIND = {"string": _STRING, "octets": _OCTETS, "void": _VOID}

# A step: (kind, first value index, index past the last, data), where
# data is a run's Structs, or the one value's TypeCode.
_Step = Tuple[int, int, int, Any]


def _run_structs(fmts: Sequence[str]) -> Tuple[Tuple[struct.Struct, ...], ...]:
    """``structs[little_endian][start % 8]``: one Struct packing a run of
    fixed-size values, with the padding before and between them, for
    each byte order and each offset the run can start at."""
    by_order = []
    for order in "><":
        variants = []
        for start in range(8):
            layout, pos = [order], start
            for fmt in fmts:
                size = struct.calcsize(fmt)
                pad = -pos & (size - 1)
                layout.append("x" * pad + fmt)
                pos += pad + size
            variants.append(struct.Struct("".join(layout)))
        by_order.append(tuple(variants))
    return tuple(by_order)


def _compile(typecodes: Sequence[TypeCode]) -> Tuple[_Step, ...]:
    steps: List[_Step] = []
    index = 0
    for fixed, group in groupby(typecodes, key=lambda tc: tc.fmt is not None):
        kinds = list(group)
        stop = index + len(kinds)
        if fixed:
            fmts = [tc.fmt for tc in kinds if tc.fmt is not None]
            steps.append((_RUN, index, stop, _run_structs(fmts)))
        else:
            steps += [(_STEP_OF_KIND.get(tc.kind, _BY_TYPECODE), i, i + 1, tc)
                      for i, tc in enumerate(kinds, index)]
        index = stop
    return tuple(steps)


class Codec:
    """The marshaller of one fixed list of type codes — an operation's
    parameters, or its result — compiled once.

    Consecutive fixed-size values form a *run* that one ``struct.Struct``
    packs or unpacks whole; since a run's padding depends only on its
    starting offset modulo 8, it keeps one Struct per such offset and
    byte order.  A signature of fixed-size values alone is a single
    Struct call each way.  Strings and octet sequences have their own
    steps; enum, sequence and struct values are handed to their
    :class:`TypeCode` over a CDR stream positioned at the same offset.
    Offsets count from the start of the body, which GIOP messages keep
    8-aligned (see :func:`repro.iiop.giop.encode_request`).
    """

    def __init__(self, typecodes: Sequence[TypeCode]) -> None:
        self.typecodes = tuple(typecodes)
        self._steps = _compile(self.typecodes)
        # Fixed-size values alone: one Struct per byte order, at offset 0.
        self._whole: Optional[Tuple[struct.Struct, struct.Struct]] = None
        if len(self._steps) == 1 and self._steps[0][0] == _RUN:
            structs = self._steps[0][3]
            self._whole = (structs[0][0], structs[1][0])

    def __repr__(self) -> str:
        return f"<Codec {[tc.kind for tc in self.typecodes]}>"

    def encode(self, values: Sequence[Any], little_endian: bool = False
               ) -> bytes:
        """Marshal ``values`` (one per type code) into a body."""
        if len(values) != len(self.typecodes):
            raise MarshalError(
                f"expected {len(self.typecodes)} values, got {len(values)}")
        try:
            if self._whole is not None:
                packed: bytes = self._whole[little_endian].pack(*values)
                return packed
            ulong = ULONG[little_endian]
            parts: List[bytes] = []
            pos = 0
            for kind, start, stop, data in self._steps:
                if kind == _RUN:
                    chunk = data[little_endian][pos & 7].pack(
                        *values[start:stop])
                    parts.append(chunk)
                    pos += len(chunk)
                elif kind == _STRING:
                    text = encode_text(values[start])
                    pad = -pos & 3
                    parts += (PADDING[pad], ulong.pack(len(text) + 1), text,
                              b"\x00")
                    pos += pad + 5 + len(text)
                elif kind == _OCTETS:
                    octets = values[start]
                    if not isinstance(octets, (bytes, bytearray)):
                        raise MarshalError(
                            "octets value must be bytes, got "
                            f"{type(octets).__name__}")
                    pad = -pos & 3
                    parts += (PADDING[pad], ulong.pack(len(octets)),
                              bytes(octets))
                    pos += pad + 4 + len(octets)
                elif kind == _VOID:
                    if values[start] is not None:
                        raise MarshalError(
                            f"void result must be None, got {values[start]!r}")
                else:
                    lead = pos & 7
                    out = CdrOutputStream(little_endian)
                    out.write_raw(PADDING[lead])
                    data.encode(out, values[start])
                    chunk = out.getvalue()[lead:]
                    parts.append(chunk)
                    pos += len(chunk)
        except (struct.error, OverflowError) as exc:
            raise MarshalError(f"cannot encode {self!r}: {exc}") from exc
        return b"".join(parts)

    def decode(self, body: Buffer, little_endian: bool = False) -> List[Any]:
        """Unmarshal a body into one value per type code."""
        end = len(body)
        if self._whole is not None:
            unpacker = self._whole[little_endian]
            if unpacker.size > end:
                raise MarshalError(
                    f"body underflow: {self!r} needs {unpacker.size} "
                    f"bytes, have {end}")
            return list(unpacker.unpack_from(body))
        values: List[Any] = []
        pos = 0
        for kind, _, _, data in self._steps:
            if kind == _RUN:
                unpacker = data[little_endian][pos & 7]
                stop = pos + unpacker.size
                if stop > end:
                    raise MarshalError(
                        f"body underflow: need {unpacker.size} bytes at "
                        f"{pos}, have {end}")
                values += unpacker.unpack_from(body, pos)
                pos = stop
            elif kind == _STRING:
                text, pos = read_string_at(body, pos, end, little_endian)
                values.append(text)
            elif kind == _OCTETS:
                octets, pos = read_octets_at(body, pos, end, little_endian)
                values.append(octets)
            elif kind == _VOID:
                values.append(None)
            else:
                stream = CdrInputStream(body, little_endian)
                stream.skip(pos)
                values.append(data.decode(stream))
                pos = stream.position
        return values
