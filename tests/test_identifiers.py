"""Tests for Figure 6 invocation/response/operation identifiers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    InvocationId,
    OperationId,
    ResponseId,
    UNUSED_CLIENT_ID,
    dedup_key,
    external_operation_id,
)


def test_figure6_worked_example():
    """The example of Figure 6: T_A_inv=100, S_A_inv=3, T_B_inv=120,
    T_B_res=171; invocation and response share the operation id."""
    op = OperationId(parent_ts=100, child_seq=3)
    invocation = InvocationId(ts=120, op=op)
    response = ResponseId(ts=171, op=op)
    assert invocation.op == response.op
    assert invocation.ts == 120
    assert response.ts == 171
    assert str(invocation) == "inv[120,op(100,3)]"
    assert str(response) == "res[171,op(100,3)]"


def test_operation_ids_are_value_objects():
    assert OperationId(1, 2) == OperationId(1, 2)
    assert OperationId(1, 2) != OperationId(1, 3)
    assert hash(OperationId(1, 2)) == hash(OperationId(1, 2))
    assert len({OperationId(1, 2), OperationId(1, 2)}) == 1


@given(st.integers(0, 2**32), st.integers(0, 2**16))
def test_operation_id_value_contract_property(parent_ts, child_seq):
    """An operation id hashes as the plain pair, so dict and set layouts
    are those of ``(parent_ts, child_seq)``; repr and str name its
    fields; the fields cannot be reassigned."""
    op = OperationId(parent_ts, child_seq)
    assert hash(op) == hash((parent_ts, child_seq))
    assert repr(op) == (f"OperationId(parent_ts={parent_ts}, "
                        f"child_seq={child_seq})")
    assert str(op) == f"op({parent_ts},{child_seq})"
    with pytest.raises(AttributeError):
        op.parent_ts = parent_ts + 1
    with pytest.raises(AttributeError):
        op.child_seq = child_seq + 1
    assert (op.parent_ts, op.child_seq) == (parent_ts, child_seq)


def test_external_operation_id_has_no_parent():
    op = external_operation_id(17)
    assert op.parent_ts == 0
    assert op.child_seq == 17


def test_dedup_key_distinguishes_clients():
    """Section 3.2: source group, client id and operation id are used
    collectively — two clients with the same request numbers differ."""
    op = external_operation_id(1)
    key_a = dedup_key(1, 5, op)
    key_b = dedup_key(1, 6, op)
    assert key_a != key_b


def test_dedup_key_distinguishes_source_groups():
    op = OperationId(100, 1)
    assert dedup_key(1, UNUSED_CLIENT_ID, op) != dedup_key(2, UNUSED_CLIENT_ID, op)


def test_dedup_key_matches_for_reinvocation():
    """A reissued request (same client uid, same request id) maps to the
    same key — the property gateway failover relies on (section 3.5)."""
    first = dedup_key(1, "ftclient/browser/1#1", external_operation_id(42))
    reissued = dedup_key(1, "ftclient/browser/1#1", external_operation_id(42))
    assert first == reissued


def test_unused_client_id_collides_with_no_counter_or_uid():
    assert UNUSED_CLIENT_ID != 0
    assert UNUSED_CLIENT_ID > 2**31  # above any plausible counter value
    assert not isinstance(UNUSED_CLIENT_ID, str)


@given(st.integers(0, 2**32), st.integers(0, 2**16),
       st.integers(0, 2**32), st.integers(0, 2**16))
def test_distinct_parents_never_collide_property(ts1, seq1, ts2, seq2):
    op1, op2 = OperationId(ts1, seq1), OperationId(ts2, seq2)
    if (ts1, seq1) != (ts2, seq2):
        assert op1 != op2
    else:
        assert op1 == op2


@given(st.lists(st.tuples(st.integers(1, 1000), st.integers(1, 50)),
                min_size=1, max_size=200, unique=True))
def test_operation_ids_unique_across_parent_children_property(pairs):
    """Totem timestamps are unique, child counters restart per parent:
    the pair is globally unique — the paper's uniqueness argument."""
    ids = {OperationId(ts, seq) for ts, seq in pairs}
    assert len(ids) == len(pairs)
