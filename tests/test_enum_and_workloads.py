"""Tests for EnumTC and the latency ``percentiles`` test helper."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MarshalError
from repro.iiop import CdrInputStream, CdrOutputStream, EnumTC

from tests.helpers import percentiles


# ----------------------------------------------------------------------
# EnumTC
# ----------------------------------------------------------------------

SIDE = EnumTC("OrderSide", ["BUY", "SELL", "CANCEL"])


def test_enum_roundtrip():
    out = CdrOutputStream()
    SIDE.encode(out, "SELL")
    assert out.getvalue() == b"\x00\x00\x00\x01"
    assert SIDE.decode(CdrInputStream(out.getvalue())) == "SELL"


def test_enum_rejects_unknown_member():
    out = CdrOutputStream()
    with pytest.raises(MarshalError):
        SIDE.encode(out, "HOLD")


def test_enum_rejects_out_of_range_ordinal():
    with pytest.raises(MarshalError):
        SIDE.decode(CdrInputStream(b"\x00\x00\x00\x09"))


def test_enum_construction_validation():
    with pytest.raises(MarshalError):
        EnumTC("Empty", [])
    with pytest.raises(MarshalError):
        EnumTC("Dup", ["A", "A"])


def test_enum_inside_operation(world):
    from repro.iiop import TC_LONG
    from repro.orb import Interface, Operation, Param, Servant
    from tests.helpers import make_domain

    ORDERS = Interface("Orders", [
        Operation("place", [Param("side", SIDE), Param("qty", TC_LONG)],
                  SIDE),
    ])

    class OrdersServant(Servant):
        interface = ORDERS

        def place(self, side, qty):
            return "CANCEL" if qty <= 0 else side

    domain = make_domain(world)
    group = domain.create_group("Orders", ORDERS, OrdersServant)
    assert world.await_promise(group.invoke("place", "BUY", 10)) == "BUY"
    assert world.await_promise(group.invoke("place", "SELL", 0)) == "CANCEL"


@given(st.sampled_from(["BUY", "SELL", "CANCEL"]))
def test_enum_roundtrip_property(member):
    out = CdrOutputStream()
    SIDE.encode(out, member)
    assert SIDE.decode(CdrInputStream(out.getvalue())) == member


# ----------------------------------------------------------------------
# Latency percentiles (tests/helpers.py)
# ----------------------------------------------------------------------

def test_percentiles_summary():
    samples = [float(i) for i in range(1, 101)]
    stats = percentiles(samples)
    assert stats["count"] == 100
    assert stats["mean"] == pytest.approx(50.5)
    assert stats["p50"] == 50.0
    assert stats["p95"] == 95.0
    assert stats["p99"] == 99.0


def test_percentiles_empty_and_singleton():
    assert percentiles([]) == {}
    stats = percentiles([2.5])
    assert stats["p50"] == 2.5 and stats["p99"] == 2.5
