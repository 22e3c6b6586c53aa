"""Common Data Representation (CDR) encoding and decoding.

CDR is the marshalling format underneath GIOP/IIOP (CORBA 2.3, chapter
15).  This module implements the subset the reproduction needs, but
implements it properly: natural alignment relative to the start of the
stream, both byte orders, primitive types, strings (with trailing NUL),
octet sequences, and nested encapsulations (which restart alignment and
carry their own endianness octet).

The hot wire paths do not come through these streams.  A GIOP message
is built and parsed whole by :mod:`repro.iiop.giop`, and an operation's
arguments and result by the :class:`~repro.iiop.types.Codec` compiled
for its signature; both share the precompiled length codec
(:data:`ULONG`), the padding table (:data:`PADDING`) and the text
helpers defined here.  The streams remain the general CDR machinery for
what has no fixed layout: IORs, encapsulations, the Figure 4 header
encoding, and the enum, sequence and struct type codes.  They stay
cheap without changing a wire byte:

* every numeric codec is a precompiled :class:`struct.Struct` (one per
  (kind, byte order)), so encoding never rebuilds a format string and
  decoding uses ``unpack_from`` straight off the underlying buffer;
* :class:`CdrInputStream` accepts any bytes-like object (``bytes``,
  ``bytearray``, ``memoryview``), which lets callers hand it borrowed
  views of larger buffers instead of copies.

Text that is not UTF-8 (for ``char``, not Latin-1) is a
:class:`~repro.errors.MarshalError` in either direction, on the streams
and the compiled codecs alike: malformed input from a peer is answered,
never a ``UnicodeError`` escaping into the simulation.
"""

from __future__ import annotations

import struct
from typing import Tuple, Union

from ..errors import MarshalError

#: Any buffer the decoders read in place.
Buffer = Union[bytes, bytearray, memoryview]

BIG_ENDIAN = False  # CDR flag value: False/0 means big-endian
LITTLE_ENDIAN = True

_ALIGNMENT = {
    "short": 2, "ushort": 2,
    "long": 4, "ulong": 4, "float": 4,
    "longlong": 8, "ulonglong": 8, "double": 8,
}

_FORMATS = {
    "short": "h", "ushort": "H",
    "long": "i", "ulong": "I",
    "longlong": "q", "ulonglong": "Q",
    "float": "f", "double": "d",
}

# Precompiled codecs: (kind, little_endian) -> struct.Struct.  Built
# once at import; every numeric read/write goes through these.
_CODECS = {
    (kind, little): struct.Struct(("<" if little else ">") + fmt)
    for kind, fmt in _FORMATS.items()
    for little in (False, True)
}

#: ``ULONG[little_endian]``: the ulong codec of each byte order, which
#: every length prefix and count on the wire goes through.
ULONG = (_CODECS["ulong", False], _CODECS["ulong", True])

#: ``PADDING[n]`` is ``n`` zero octets (n < 8): alignment filler.
PADDING = tuple(bytes(n) for n in range(8))


def encode_text(value: str) -> bytes:
    """A CORBA string's characters as UTF-8, without length or NUL."""
    try:
        encoded = value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise MarshalError(f"string is not encodable as UTF-8: {exc}") from None
    except AttributeError:
        raise MarshalError(
            f"string value must be str, got {type(value).__name__}") from None
    if b"\x00" in encoded:
        raise MarshalError("CORBA strings cannot contain NUL")
    return encoded


def read_octets_at(data: Buffer, pos: int, end: int,
                   little_endian: bool) -> Tuple[bytes, int]:
    """Decode the sequence<octet> due at offset ``pos`` (before its
    alignment) of ``data[:end]``: its bytes and the offset after it."""
    pos += -pos & 3
    if pos + 4 > end:
        raise MarshalError(f"CDR underflow: need 4 bytes at {pos}, have {end}")
    length: int = ULONG[little_endian].unpack_from(data, pos)[0]
    stop = pos + 4 + length
    if stop > end:
        raise MarshalError(
            f"CDR underflow: need {length} bytes at {pos + 4}, have {end}")
    return bytes(data[pos + 4:stop]), stop


def read_string_at(data: Buffer, pos: int, end: int,
                   little_endian: bool) -> Tuple[str, int]:
    """Decode the CORBA string due at offset ``pos`` (before its
    alignment) of ``data[:end]``: its text and the offset after it.
    Bytes that are not UTF-8 are malformed input like any other."""
    pos += -pos & 3
    if pos + 4 > end:
        raise MarshalError(f"CDR underflow: need 4 bytes at {pos}, have {end}")
    length: int = ULONG[little_endian].unpack_from(data, pos)[0]
    if length == 0:
        raise MarshalError("CORBA string length 0 is invalid (must include NUL)")
    stop = pos + 4 + length
    if stop > end:
        raise MarshalError(
            f"CDR underflow: need {length} bytes at {pos + 4}, have {end}")
    if data[stop - 1] != 0:
        raise MarshalError("CORBA string missing trailing NUL")
    try:
        return str(data[pos + 4:stop - 1], "utf-8"), stop
    except UnicodeDecodeError as exc:
        raise MarshalError(f"CORBA string is not UTF-8: {exc}") from None


class CdrOutputStream:
    """Append-only CDR encoder."""

    def __init__(self, little_endian: bool = False) -> None:
        self.little_endian = little_endian
        self._buffer = bytearray()

    def __len__(self) -> int:
        return len(self._buffer)

    def getvalue(self) -> bytes:
        return bytes(self._buffer)

    # -- alignment ------------------------------------------------------

    def align(self, boundary: int) -> None:
        remainder = len(self._buffer) % boundary
        if remainder:
            self._buffer.extend(b"\x00" * (boundary - remainder))

    # -- primitives -----------------------------------------------------

    def write_octet(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise MarshalError(f"octet out of range: {value}")
        self._buffer.append(value)

    def write_boolean(self, value: bool) -> None:
        self._buffer.append(1 if value else 0)

    def write_char(self, value: str) -> None:
        if len(value) != 1:
            raise MarshalError(f"char must be a single character: {value!r}")
        try:
            self._buffer.extend(value.encode("latin-1"))
        except UnicodeEncodeError:
            raise MarshalError(f"char {value!r} is not Latin-1") from None

    def _write_numeric(self, kind: str, value) -> None:
        self.align(_ALIGNMENT[kind])
        codec = _CODECS[kind, self.little_endian]
        try:
            self._buffer.extend(codec.pack(value))
        except (struct.error, OverflowError) as exc:
            raise MarshalError(f"cannot encode {kind} {value!r}: {exc}") from exc

    def write_short(self, value: int) -> None:
        self._write_numeric("short", value)

    def write_ushort(self, value: int) -> None:
        self._write_numeric("ushort", value)

    def write_long(self, value: int) -> None:
        self._write_numeric("long", value)

    def write_ulong(self, value: int) -> None:
        self._write_numeric("ulong", value)

    def write_longlong(self, value: int) -> None:
        self._write_numeric("longlong", value)

    def write_ulonglong(self, value: int) -> None:
        self._write_numeric("ulonglong", value)

    def write_float(self, value: float) -> None:
        self._write_numeric("float", value)

    def write_double(self, value: float) -> None:
        self._write_numeric("double", value)

    # -- constructed types ----------------------------------------------

    def write_string(self, value: str) -> None:
        """CORBA string: ulong length including trailing NUL, bytes, NUL."""
        encoded = encode_text(value)
        self.write_ulong(len(encoded) + 1)
        self._buffer.extend(encoded)
        self._buffer.append(0)

    def write_octets(self, value: bytes) -> None:
        """sequence<octet>: ulong length then raw bytes."""
        self.write_ulong(len(value))
        self._buffer.extend(value)

    def write_raw(self, value: bytes) -> None:
        """Raw bytes with no length prefix (already-encoded material)."""
        self._buffer.extend(value)

    def patch_raw(self, offset: int, value: bytes) -> None:
        """Overwrite already-written bytes in place (e.g. a reserved
        header slot filled in once the body length is known)."""
        end = offset + len(value)
        if offset < 0 or end > len(self._buffer):
            raise MarshalError(
                f"patch of {len(value)} bytes at {offset} outside stream "
                f"of {len(self._buffer)}"
            )
        self._buffer[offset:end] = value

    def write_encapsulation(self, build_fn) -> None:
        """Write a CDR encapsulation produced by ``build_fn(inner_stream)``.

        Encapsulations are octet sequences whose first octet records the
        byte order of the interior; alignment restarts at offset zero.
        """
        inner = CdrOutputStream(little_endian=self.little_endian)
        inner.write_boolean(self.little_endian)
        build_fn(inner)
        self.write_octets(inner.getvalue())


class CdrInputStream:
    """Cursor-based CDR decoder over any immutable bytes-like buffer.

    Numeric reads decode in place with precompiled ``unpack_from``
    codecs — the cursor moves, but no intermediate slice is allocated.
    ``bytes``-returning reads (strings, octet sequences, raw spans)
    still copy, because their results outlive the stream.
    """

    def __init__(self, data, little_endian: bool = False) -> None:
        self._data = data
        self._len = len(data)
        self._pos = 0
        self.little_endian = little_endian

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._len - self._pos

    def align(self, boundary: int) -> None:
        remainder = self._pos % boundary
        if remainder:
            self._pos += boundary - remainder

    def _take(self, count: int) -> bytes:
        if count < 0:
            raise MarshalError(f"negative CDR read of {count} bytes")
        pos = self._pos
        if pos + count > self._len:
            raise MarshalError(
                f"CDR underflow: need {count} bytes at {pos}, have {self._len}"
            )
        chunk = self._data[pos:pos + count]
        self._pos = pos + count
        return chunk if type(chunk) is bytes else bytes(chunk)

    # -- primitives -----------------------------------------------------

    def read_octet(self) -> int:
        pos = self._pos
        if pos >= self._len:
            raise MarshalError(
                f"CDR underflow: need 1 byte at {pos}, have {self._len}")
        self._pos = pos + 1
        return self._data[pos]

    def read_boolean(self) -> bool:
        return self.read_octet() != 0

    def read_char(self) -> str:
        return self._take(1).decode("latin-1")

    def _read_numeric(self, kind: str):
        self.align(_ALIGNMENT[kind])
        codec = _CODECS[kind, self.little_endian]
        pos = self._pos
        end = pos + codec.size
        if end > self._len:
            raise MarshalError(
                f"CDR underflow: need {codec.size} bytes at {pos}, "
                f"have {self._len}"
            )
        self._pos = end
        return codec.unpack_from(self._data, pos)[0]

    def read_short(self) -> int:
        return self._read_numeric("short")

    def read_ushort(self) -> int:
        return self._read_numeric("ushort")

    def read_long(self) -> int:
        return self._read_numeric("long")

    def read_ulong(self) -> int:
        return self._read_numeric("ulong")

    def read_longlong(self) -> int:
        return self._read_numeric("longlong")

    def read_ulonglong(self) -> int:
        return self._read_numeric("ulonglong")

    def read_float(self) -> float:
        return self._read_numeric("float")

    def read_double(self) -> float:
        return self._read_numeric("double")

    # -- constructed types ----------------------------------------------

    def read_string(self) -> str:
        text, self._pos = read_string_at(self._data, self._pos, self._len,
                                         self.little_endian)
        return text

    def read_octets(self) -> bytes:
        octets, self._pos = read_octets_at(self._data, self._pos, self._len,
                                           self.little_endian)
        return octets

    def read_raw(self, count: int) -> bytes:
        return self._take(count)

    def skip(self, count: int) -> None:
        """Advance the cursor without materialising the spanned bytes."""
        if count < 0:
            raise MarshalError(f"negative CDR skip of {count} bytes")
        if self._pos + count > self._len:
            raise MarshalError(
                f"CDR underflow: need {count} bytes at {self._pos}, "
                f"have {self._len}"
            )
        self._pos += count

    def read_encapsulation(self) -> "CdrInputStream":
        """Read an octet-sequence encapsulation; returns an inner stream
        positioned after its endianness octet."""
        raw = self.read_octets()
        if not raw:
            raise MarshalError("empty CDR encapsulation")
        inner = CdrInputStream(raw)
        inner.little_endian = inner.read_boolean()
        return inner


def encapsulate(build_fn, little_endian: bool = False) -> bytes:
    """Build a standalone encapsulation (endianness octet + body)."""
    out = CdrOutputStream(little_endian=little_endian)
    out.write_boolean(little_endian)
    build_fn(out)
    return out.getvalue()


def decapsulate(data: bytes) -> CdrInputStream:
    """Open a standalone encapsulation produced by :func:`encapsulate`."""
    stream = CdrInputStream(data)
    if stream.remaining == 0:
        raise MarshalError("empty CDR encapsulation")
    stream.little_endian = stream.read_boolean()
    return stream
