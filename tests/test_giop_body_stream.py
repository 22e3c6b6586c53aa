"""Remaining duplicate-filter units."""

from repro.core import DuplicateSuppressor


def test_forget_clears_pending_and_delivered():
    suppressor = DuplicateSuppressor()
    suppressor.expect(("g", "client-a", 1))
    suppressor.expect(("g", "client-b", 1))
    suppressor.offer(("g", "client-a", 1), b"r")   # delivered
    removed = suppressor.forget(("g", "client-a"))
    assert removed == 1
    # client-a's key can be served fresh again...
    suppressor.expect(("g", "client-a", 1))
    verdict, _ = suppressor.offer(("g", "client-a", 1), b"r2")
    assert verdict == DuplicateSuppressor.DELIVER
    # ...while client-b's expectation was untouched.
    assert suppressor.is_expected(("g", "client-b", 1))


def test_forget_on_pending_expectations():
    suppressor = DuplicateSuppressor()
    suppressor.expect(("g", "client-a", 1), votes_needed=2)
    suppressor.offer(("g", "client-a", 1), b"r", responder="r0")  # pending
    removed = suppressor.forget(("g", "client-a"))
    assert removed == 1
    assert suppressor.offer(("g", "client-a", 1), b"r")[0] == \
        DuplicateSuppressor.UNEXPECTED
