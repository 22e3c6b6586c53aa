"""Tests for IORs: profiles, stringification, gateway address rewriting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.iiop import ior as ior_module
from repro.iiop import (
    IiopProfile,
    Ior,
    TAG_INTERNET_IOP,
    TaggedProfile,
    replace_addresses,
    stitch_profiles,
)

host_names = st.from_regex(r"[a-z][a-z0-9\-]{0,20}", fullmatch=True)
ports = st.integers(min_value=1, max_value=65535)


def test_profile_roundtrip():
    profile = IiopProfile("gw.example.com", 2809, b"ftdomain/ny/10")
    decoded = IiopProfile.decode(profile.encode())
    assert decoded == profile


def test_ior_roundtrip_via_string():
    ior = Ior.for_endpoints("IDL:repro/Trader:1.0",
                            [("gw0", 2809), ("gw1", 2810)], b"key")
    text = ior.to_string()
    assert text.startswith("IOR:")
    decoded = Ior.from_string(text)
    assert decoded.type_id == "IDL:repro/Trader:1.0"
    assert [p.address for p in decoded.iiop_profiles()] == [
        ("gw0", 2809), ("gw1", 2810)]
    assert decoded.primary_profile().object_key == b"key"


def test_ior_string_is_hex():
    ior = Ior.for_endpoints("IDL:x:1.0", [("h", 1)], b"k")
    body = ior.to_string()[4:]
    assert all(c in "0123456789abcdef" for c in body)


def test_from_string_rejects_bad_prefix():
    with pytest.raises(MarshalError):
        Ior.from_string("ior:deadbeef")


def test_from_string_rejects_bad_hex():
    with pytest.raises(MarshalError):
        Ior.from_string("IOR:zzzz")


def test_primary_profile_requires_iiop_profile():
    ior = Ior(type_id="IDL:x:1.0", profiles=[])
    with pytest.raises(MarshalError):
        ior.primary_profile()


def test_replace_addresses_rewrites_every_profile():
    """Section 3.1: the published IOR carries the gateway address but the
    original object key, so the gateway can identify the target."""
    ior = Ior.for_endpoints("IDL:repro/Trader:1.0",
                            [("srv0", 9000), ("srv1", 9001)], b"group:12")
    rewritten = replace_addresses(ior, ("gateway", 2809))
    addresses = [p.address for p in rewritten.iiop_profiles()]
    assert addresses == [("gateway", 2809), ("gateway", 2809)]
    for profile in rewritten.iiop_profiles():
        assert profile.object_key == b"group:12"
    # The original IOR is untouched.
    assert ior.primary_profile().address == ("srv0", 9000)


def test_stitch_profiles_builds_multi_profile_ior():
    """Section 3.5: one profile per redundant gateway."""
    ior = stitch_profiles("IDL:repro/Trader:1.0",
                          [("gw0", 2809), ("gw1", 2809), ("gw2", 2809)],
                          b"group:7")
    profiles = ior.iiop_profiles()
    assert len(profiles) == 3
    assert {p.host for p in profiles} == {"gw0", "gw1", "gw2"}
    assert all(p.object_key == b"group:7" for p in profiles)


def test_stitch_requires_at_least_one_gateway():
    with pytest.raises(MarshalError):
        stitch_profiles("IDL:x:1.0", [], b"k")


def test_non_iiop_profiles_are_preserved_by_replace():
    endpoint = Ior.for_endpoints("IDL:x:1.0", [("h", 1)], b"k").profiles[0]
    ior = Ior("IDL:x:1.0", [endpoint, TaggedProfile(99, b"opaque")])
    rewritten = replace_addresses(ior, ("gw", 2))
    assert rewritten.primary_profile().address == ("gw", 2)
    assert rewritten.profiles[-1].tag == 99
    assert rewritten.profiles[-1].data == b"opaque"


# ----------------------------------------------------------------------
# An Ior is an immutable value: derived once, interned by text
# ----------------------------------------------------------------------

def test_ior_rejects_mutation():
    ior = Ior.for_endpoints("IDL:x:1.0", [("h", 1)], b"k")
    with pytest.raises(AttributeError):
        ior.profiles = ()
    with pytest.raises(AttributeError):
        ior.type_id = "IDL:y:1.0"
    with pytest.raises(AttributeError):
        ior.profiles.append(TaggedProfile(99, b"opaque"))
    # A sequence passed in is copied, not aliased.
    source = list(ior.profiles)
    built = Ior("IDL:x:1.0", source)
    source.clear()
    assert built == ior and hash(built) == hash(ior)


def test_derived_views_are_computed_once_per_instance(monkeypatch):
    ior = Ior.for_endpoints("IDL:x:1.0", [("a", 1), ("b", 2)], b"k")
    decodes = []
    real_decode = IiopProfile.decode
    monkeypatch.setattr(
        IiopProfile, "decode",
        staticmethod(lambda data: decodes.append(data) or real_decode(data)))
    first = ior.iiop_profiles()
    assert ior.iiop_profiles() is first
    assert ior.primary_profile() is first[0]
    assert len(decodes) == 2
    assert ior.to_string() is ior.to_string()


def test_from_string_interns_by_text():
    text = Ior.for_endpoints("IDL:x:1.0", [("h", 1)], b"intern").to_string()
    assert Ior.from_string(text) is Ior.from_string(text)
    # Keyed by the text, not by the value: the upper-case spelling of
    # the same reference is its own entry, equal but not identical.
    upper = "IOR:" + text[4:].upper()
    assert Ior.from_string(upper) == Ior.from_string(text)
    assert Ior.from_string(upper).to_string() == text


@pytest.mark.parametrize("text", [
    "ior:deadbeef",                      # bad prefix
    "IOR:zzzz",                          # bad hex
    "IOR:00",                            # truncated encapsulation
    "IOR:" + "00" * 4 + "ffffffff",      # implausible string length
])
def test_malformed_string_raises_every_time_and_is_never_interned(text):
    for _ in range(3):
        with pytest.raises(MarshalError):
            Ior.from_string(text)
    assert text not in ior_module._INTERNED


def test_intern_table_stays_bounded():
    first = Ior.for_endpoints("IDL:x:1.0", [("h", 1)], b"k0").to_string()
    kept = Ior.from_string(first)
    for i in range(1, 10_000):
        Ior.from_string(
            Ior.for_endpoints("IDL:x:1.0", [("h", 1)], b"k%d" % i).to_string())
    assert len(ior_module._INTERNED) <= ior_module.INTERN_LIMIT
    # Evicted, so parsed afresh: equal to the instance a holder kept.
    assert first not in ior_module._INTERNED
    assert Ior.from_string(first) == kept


@given(st.lists(st.tuples(host_names, ports), min_size=1, max_size=8),
       st.binary(min_size=1, max_size=64))
def test_ior_string_roundtrip_property(endpoints, object_key):
    ior = Ior.for_endpoints("IDL:repro/T:1.0", endpoints, object_key)
    decoded = Ior.from_string(ior.to_string())
    assert [p.address for p in decoded.iiop_profiles()] == endpoints
    assert all(p.object_key == object_key for p in decoded.iiop_profiles())


@given(st.lists(st.tuples(host_names, ports), min_size=1, max_size=5),
       host_names, ports)
def test_replace_addresses_property(endpoints, new_host, new_port):
    ior = Ior.for_endpoints("IDL:x:1.0", endpoints, b"key")
    rewritten = replace_addresses(ior, (new_host, new_port))
    assert all(p.address == (new_host, new_port)
               for p in rewritten.iiop_profiles())
    assert len(rewritten.profiles) == len(ior.profiles)
