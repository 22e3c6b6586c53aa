"""Interoperable Object References (IORs) with multi-profile support.

An IOR carries a repository type id plus a list of tagged profiles;
each ``TAG_INTERNET_IOP`` profile names one {host, port, object_key}
endpoint.  Two paper mechanisms live here:

* **Address interposition** (section 3.1): Eternal publishes IORs whose
  profile addresses are the *gateway's* {host, port}, so unreplicated
  clients connect to the gateway while believing they talk to the
  server.  The Eternal Interceptor puts the gateway's address in where
  the server ORB asks for its own (``repro.eternal.interceptor``); no
  IOR is rewritten.
* **Multi-profile stitching** (section 3.5): the Eternal Interceptor
  "stitches" one profile per redundant gateway into a single IOR that an
  enhanced client layer can traverse on failure.  :func:`stitch_profiles`
  builds such IORs; plain ORBs use only the first profile.

``IOR:`` stringification uses the standard hex-of-CDR-encapsulation
form, so references can be passed around as opaque strings exactly as
CORBA applications do.

An :class:`Ior` is an immutable value, so everything derived from it —
the decoded IIOP profiles, the ``IOR:`` string — is computed at most
once per instance, and :meth:`Ior.from_string` hands every holder of
the same text the same instance.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence, Tuple

from ..errors import MarshalError
from .cdr import CdrInputStream, CdrOutputStream, decapsulate, encapsulate

TAG_INTERNET_IOP = 0
TAG_MULTIPLE_COMPONENTS = 1


@dataclass(frozen=True)
class IiopProfile:
    """One IIOP endpoint: protocol version, host, port, object key."""

    host: str
    port: int
    object_key: bytes
    version: Tuple[int, int] = (1, 0)

    def encode(self) -> bytes:
        """Encode as the CDR encapsulation body of a TAG_INTERNET_IOP."""

        def build(out: CdrOutputStream) -> None:
            out.write_octet(self.version[0])
            out.write_octet(self.version[1])
            out.write_string(self.host)
            out.write_ushort(self.port)
            out.write_octets(self.object_key)

        return encapsulate(build)

    @staticmethod
    def decode(data: bytes) -> "IiopProfile":
        stream = decapsulate(data)
        major = stream.read_octet()
        minor = stream.read_octet()
        host = stream.read_string()
        port = stream.read_ushort()
        object_key = stream.read_octets()
        return IiopProfile(host=host, port=port, object_key=object_key,
                           version=(major, minor))

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)


@dataclass(frozen=True)
class TaggedProfile:
    tag: int
    data: bytes


# Stringified references parsed by this process (Ior.from_string),
# oldest first.  Sharing across worlds is invisible: an Ior is immutable
# and equal texts parse to equal values.
INTERN_LIMIT = 1024
_INTERNED: Dict[str, "Ior"] = {}


@dataclass(frozen=True)
class Ior:
    """A CORBA object reference: type id + ordered tagged profiles."""

    type_id: str
    profiles: Tuple[TaggedProfile, ...] = ()

    def __post_init__(self) -> None:
        # Accept any sequence, hold a tuple: the value never changes
        # after construction, which is what makes the memoised views
        # below (and the intern table) safe to share.
        object.__setattr__(self, "profiles", tuple(self.profiles))

    # -- construction ----------------------------------------------------

    @staticmethod
    def for_endpoints(type_id: str, endpoints: Sequence[Tuple[str, int]],
                      object_key: bytes) -> "Ior":
        """Build an IOR with one IIOP profile per (host, port) endpoint."""
        return Ior(type_id, tuple(
            TaggedProfile(TAG_INTERNET_IOP,
                          IiopProfile(host, port, object_key).encode())
            for host, port in endpoints))

    # -- profile access ---------------------------------------------------

    @cached_property
    def _iiop_profiles(self) -> Tuple[IiopProfile, ...]:
        return tuple(IiopProfile.decode(p.data) for p in self.profiles
                     if p.tag == TAG_INTERNET_IOP)

    def iiop_profiles(self) -> Tuple[IiopProfile, ...]:
        """All TAG_INTERNET_IOP profiles, decoded, in IOR order."""
        return self._iiop_profiles

    def primary_profile(self) -> IiopProfile:
        """The first IIOP profile — all a non-enhanced ORB ever uses."""
        profiles = self._iiop_profiles
        if not profiles:
            raise MarshalError(f"IOR for {self.type_id} has no IIOP profile")
        return profiles[0]

    # -- wire form ---------------------------------------------------------

    def encode(self, out: CdrOutputStream) -> None:
        out.write_string(self.type_id)
        out.write_ulong(len(self.profiles))
        for profile in self.profiles:
            out.write_ulong(profile.tag)
            out.write_octets(profile.data)

    @staticmethod
    def decode(stream: CdrInputStream) -> "Ior":
        type_id = stream.read_string()
        count = stream.read_ulong()
        if count > 1024:
            raise MarshalError(f"implausible profile count {count}")
        profiles = []
        for _ in range(count):
            tag = stream.read_ulong()
            data = stream.read_octets()
            profiles.append(TaggedProfile(tag, data))
        return Ior(type_id, tuple(profiles))

    @cached_property
    def _string(self) -> str:
        data = encapsulate(self.encode)
        return "IOR:" + binascii.hexlify(data).decode("ascii")

    def to_string(self) -> str:
        """Standard ``IOR:<hex>`` stringified reference."""
        return self._string

    @staticmethod
    def from_string(text: str) -> "Ior":
        """Parse a stringified reference.  The result is a pure function
        of ``text``, so one instance per distinct text is interned (only
        successful parses: malformed text raises on every call)."""
        ior = _INTERNED.get(text)
        if ior is None:
            if not text.startswith("IOR:"):
                raise MarshalError(
                    "stringified reference must start with 'IOR:'")
            try:
                data = binascii.unhexlify(text[4:])
            except (binascii.Error, ValueError) as exc:
                raise MarshalError(f"bad IOR hex: {exc}") from exc
            ior = _INTERNED[text] = Ior.decode(decapsulate(data))
            if len(_INTERNED) > INTERN_LIMIT:
                _INTERNED.pop(next(iter(_INTERNED)))  # FIFO, bounded memory
        return ior


def stitch_profiles(type_id: str, addresses: Sequence[Tuple[str, int]],
                    object_key: bytes) -> Ior:
    """Build the multi-profile IOR of section 3.5: one IIOP profile per
    redundant gateway, all sharing the server's object key."""
    if not addresses:
        raise MarshalError("cannot stitch an IOR with zero gateway addresses")
    return Ior.for_endpoints(type_id, addresses, object_key)
