"""Tests for the TypeCode argument-marshalling system."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.iiop import (
    CdrInputStream,
    CdrOutputStream,
    Codec,
    SequenceTC,
    StructTC,
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_LONG,
    TC_OCTETS,
    TC_STRING,
    TC_VOID,
)


def roundtrip(tc, value):
    out = CdrOutputStream()
    tc.encode(out, value)
    return tc.decode(CdrInputStream(out.getvalue()))


def test_primitive_roundtrips():
    assert roundtrip(TC_LONG, -42) == -42
    assert roundtrip(TC_DOUBLE, 2.75) == 2.75
    assert roundtrip(TC_STRING, "hello") == "hello"
    assert roundtrip(TC_BOOLEAN, True) is True
    assert roundtrip(TC_OCTETS, b"\x00\x01") == b"\x00\x01"


def test_void_accepts_only_none():
    assert roundtrip(TC_VOID, None) is None
    out = CdrOutputStream()
    with pytest.raises(MarshalError):
        TC_VOID.encode(out, 5)


def test_sequence_of_longs():
    tc = SequenceTC(TC_LONG)
    assert roundtrip(tc, [1, 2, 3]) == [1, 2, 3]
    assert roundtrip(tc, []) == []


def test_sequence_of_strings():
    tc = SequenceTC(TC_STRING)
    assert roundtrip(tc, ["a", "bb", ""]) == ["a", "bb", ""]


def test_nested_sequences():
    tc = SequenceTC(SequenceTC(TC_LONG))
    assert roundtrip(tc, [[1], [], [2, 3]]) == [[1], [], [2, 3]]


def test_sequence_rejects_non_list():
    tc = SequenceTC(TC_LONG)
    out = CdrOutputStream()
    with pytest.raises(MarshalError):
        tc.encode(out, 7)


def test_struct_roundtrip():
    tc = StructTC("Order", [("symbol", TC_STRING), ("shares", TC_LONG),
                            ("limit", TC_DOUBLE)])
    value = {"symbol": "ACME", "shares": 100, "limit": 12.5}
    assert roundtrip(tc, value) == value


def test_struct_field_order_is_declaration_order():
    tc = StructTC("P", [("a", TC_LONG), ("b", TC_LONG)])
    out = CdrOutputStream()
    tc.encode(out, {"b": 2, "a": 1})
    stream = CdrInputStream(out.getvalue())
    assert stream.read_long() == 1
    assert stream.read_long() == 2


def test_struct_missing_field_rejected():
    tc = StructTC("P", [("a", TC_LONG)])
    out = CdrOutputStream()
    with pytest.raises(MarshalError):
        tc.encode(out, {})


def test_struct_inside_sequence():
    tc = SequenceTC(StructTC("Pt", [("x", TC_LONG), ("y", TC_LONG)]))
    value = [{"x": 1, "y": 2}, {"x": 3, "y": 4}]
    assert roundtrip(tc, value) == value


def test_codec_length_mismatch():
    with pytest.raises(MarshalError):
        Codec([TC_LONG, TC_LONG]).encode([1])


def test_parameter_list_roundtrip():
    codec = Codec([TC_STRING, TC_LONG, SequenceTC(TC_DOUBLE)])
    values = ["x", 9, [1.5, 2.5]]
    assert codec.decode(codec.encode(values)) == values


@given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=50))
def test_long_sequence_roundtrip_property(values):
    assert roundtrip(SequenceTC(TC_LONG), values) == values


@given(st.dictionaries(st.just("k"), st.integers(-100, 100), min_size=1),
       st.text(alphabet="abc", max_size=10))
def test_struct_property(d, s):
    tc = StructTC("S", [("k", TC_LONG), ("s", TC_STRING)])
    value = {"k": d["k"], "s": s}
    assert roundtrip(tc, value) == value
