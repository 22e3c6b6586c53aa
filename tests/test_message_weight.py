"""The weight ``DomainMessage.size_hint`` gives control data stays exact.

``_items_weight`` weighs leaves inline; the recursive walk it replaced is
kept here as the reference, and every byte count the ledger pins rests
on the two agreeing.
"""

from typing import Any

from hypothesis import given
from hypothesis import strategies as st

from repro.core.identifiers import OperationId
from repro.eternal.messages import DomainMessage, MsgKind, _items_weight


def reference_weight(value: Any) -> int:
    """The recursive walk, one frame per value.  An OperationId weighs
    16 like any other scalar, although it is a tuple, so the reference
    asks for it first."""
    if isinstance(value, OperationId):
        return 16
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return 8 + len(value)
    if isinstance(value, dict):
        return 8 + sum(reference_weight(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return 8 + sum(reference_weight(v) for v in value)
    return 16


class Name(str):
    pass


class Count(int):
    pass


leaves = st.one_of(
    st.text(max_size=12), st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray), st.integers(), st.booleans(),
    st.floats(allow_nan=False), st.none(), st.text(max_size=6).map(Name),
    st.integers().map(Count),
    st.builds(OperationId, st.integers(0, 2**32), st.integers(0, 2**16)))

values = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=6),
    st.lists(inner, max_size=6).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=6)), max_leaves=30)


@given(values)
def test_inline_weight_equals_the_recursive_walk_property(value):
    assert _items_weight((value,)) == reference_weight(value)


@given(st.dictionaries(st.text(max_size=8), values, max_size=6),
       st.binary(max_size=40))
def test_size_hint_weighs_header_payload_and_data_property(data, iiop):
    message = DomainMessage(MsgKind.CHECKPOINT, 1, 1, iiop=iiop, data=data)
    assert message.size_hint() == 40 + len(iiop) + sum(
        reference_weight(v) for v in data.values())


def test_operation_id_in_control_data_weighs_sixteen():
    """A NamedTuple is a tuple; the weight must not notice."""
    op = OperationId(7, 3)
    assert _items_weight((op,)) == 16
    assert _items_weight(([op, op],)) == 8 + 16 + 16
    message = DomainMessage(MsgKind.CHECKPOINT, 1, 1, data={"op": op})
    assert message.size_hint() == 40 + 16
