"""Unit and property-based tests for CDR marshalling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.iiop import CdrInputStream, CdrOutputStream, decapsulate, encapsulate


def roundtrip(write_fn, read_name, little_endian=False):
    out = CdrOutputStream(little_endian=little_endian)
    write_fn(out)
    stream = CdrInputStream(out.getvalue(), little_endian=little_endian)
    return getattr(stream, read_name)


def test_octet_roundtrip():
    out = CdrOutputStream()
    out.write_octet(0)
    out.write_octet(255)
    stream = CdrInputStream(out.getvalue())
    assert stream.read_octet() == 0
    assert stream.read_octet() == 255


def test_octet_out_of_range():
    out = CdrOutputStream()
    with pytest.raises(MarshalError):
        out.write_octet(256)
    with pytest.raises(MarshalError):
        out.write_octet(-1)


def test_alignment_padding_inserted():
    out = CdrOutputStream()
    out.write_octet(1)
    out.write_ulong(7)
    data = out.getvalue()
    # 1 octet + 3 pad + 4 ulong
    assert len(data) == 8
    assert data[1:4] == b"\x00\x00\x00"


def test_double_alignment():
    out = CdrOutputStream()
    out.write_octet(1)
    out.write_double(2.5)
    data = out.getvalue()
    assert len(data) == 16  # 1 + 7 pad + 8
    stream = CdrInputStream(data)
    assert stream.read_octet() == 1
    assert stream.read_double() == 2.5


def test_big_endian_encoding_bytes():
    out = CdrOutputStream(little_endian=False)
    out.write_ulong(0x01020304)
    assert out.getvalue() == b"\x01\x02\x03\x04"


def test_little_endian_encoding_bytes():
    out = CdrOutputStream(little_endian=True)
    out.write_ulong(0x01020304)
    assert out.getvalue() == b"\x04\x03\x02\x01"


def test_string_includes_nul_and_length():
    out = CdrOutputStream()
    out.write_string("abc")
    data = out.getvalue()
    assert data == b"\x00\x00\x00\x04abc\x00"
    stream = CdrInputStream(data)
    assert stream.read_string() == "abc"


def test_string_rejects_embedded_nul():
    out = CdrOutputStream()
    with pytest.raises(MarshalError):
        out.write_string("a\x00b")


def test_empty_string_roundtrip():
    out = CdrOutputStream()
    out.write_string("")
    stream = CdrInputStream(out.getvalue())
    assert stream.read_string() == ""


def test_octets_roundtrip():
    out = CdrOutputStream()
    out.write_octets(b"\x00\x01\xfe\xff")
    stream = CdrInputStream(out.getvalue())
    assert stream.read_octets() == b"\x00\x01\xfe\xff"


def test_underflow_raises():
    stream = CdrInputStream(b"\x00\x00")
    with pytest.raises(MarshalError):
        stream.read_ulong()


def test_encapsulation_restarts_alignment():
    out = CdrOutputStream()
    out.write_octet(9)  # misalign the outer stream
    data = encapsulate(lambda inner: inner.write_ulong(42))
    # Endianness octet, then the ulong aligned from the encapsulation's
    # own start, not from the outer stream's.
    assert data == b"\x00\x00\x00\x00\x00\x00\x00\x2a"
    out.write_octets(data)
    stream = CdrInputStream(out.getvalue())
    assert stream.read_octet() == 9
    inner = decapsulate(stream.read_octets())
    assert inner.read_ulong() == 42


def test_standalone_encapsulation_helpers():
    data = encapsulate(lambda out: out.write_string("inside"))
    stream = decapsulate(data)
    assert stream.read_string() == "inside"


def test_empty_encapsulation_rejected():
    with pytest.raises(MarshalError):
        decapsulate(b"")


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_long_roundtrip_property(value):
    out = CdrOutputStream()
    out.write_long(value)
    assert CdrInputStream(out.getvalue()).read_long() == value


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_ulonglong_roundtrip_property(value):
    out = CdrOutputStream()
    out.write_ulonglong(value)
    assert CdrInputStream(out.getvalue()).read_ulonglong() == value


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_double_roundtrip_property(value):
    out = CdrOutputStream()
    out.write_double(value)
    assert CdrInputStream(out.getvalue()).read_double() == value


@given(st.text(alphabet=st.characters(blacklist_characters="\x00",
                                      blacklist_categories=("Cs",)),
               max_size=200))
def test_string_roundtrip_property(value):
    out = CdrOutputStream()
    out.write_string(value)
    assert CdrInputStream(out.getvalue()).read_string() == value


@given(st.binary(max_size=200))
def test_octets_roundtrip_property(value):
    out = CdrOutputStream()
    out.write_octets(value)
    assert CdrInputStream(out.getvalue()).read_octets() == value


@settings(max_examples=50)
@given(st.lists(st.tuples(st.sampled_from(["octet", "ulong", "double", "string"]),
                          st.integers(0, 255)), max_size=20),
       st.booleans())
def test_mixed_sequence_roundtrip_property(fields, little_endian):
    """Any interleaving of types round-trips with correct alignment."""
    out = CdrOutputStream(little_endian=little_endian)
    expected = []
    for kind, value in fields:
        if kind == "octet":
            out.write_octet(value)
            expected.append(("read_octet", value))
        elif kind == "ulong":
            out.write_ulong(value * 1000)
            expected.append(("read_ulong", value * 1000))
        elif kind == "double":
            out.write_double(value / 3.0)
            expected.append(("read_double", value / 3.0))
        else:
            out.write_string(f"s{value}")
            expected.append(("read_string", f"s{value}"))
    stream = CdrInputStream(out.getvalue(), little_endian=little_endian)
    for reader, value in expected:
        assert getattr(stream, reader)() == value
