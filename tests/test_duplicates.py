"""Unit tests for duplicate response suppression and voting (section 3.3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import DuplicateSuppressor


def test_first_response_delivered_rest_suppressed():
    s = DuplicateSuppressor()
    s.expect("op1")
    verdict, payload = s.offer("op1", b"reply", responder="r0")
    assert verdict == DuplicateSuppressor.DELIVER
    assert payload == b"reply"
    for responder in ("r1", "r2"):
        verdict, payload = s.offer("op1", b"reply", responder=responder)
        assert verdict == DuplicateSuppressor.DUPLICATE
        assert payload is None
    # The delivered memory keeps the one payload that was delivered.
    assert s.delivered("op1") == b"reply"


def test_unexpected_response_reported():
    s = DuplicateSuppressor()
    verdict, payload = s.offer("unknown", b"x")
    assert verdict == DuplicateSuppressor.UNEXPECTED
    assert payload is None
    assert s.delivered("unknown") is None
    assert s.pending_count == 0


def test_voting_requires_majority():
    s = DuplicateSuppressor()
    s.expect("op", votes_needed=2)
    verdict, _ = s.offer("op", b"good", responder="r0")
    assert verdict == DuplicateSuppressor.PENDING
    verdict, payload = s.offer("op", b"good", responder="r1")
    assert verdict == DuplicateSuppressor.DELIVER
    assert payload == b"good"


def test_voting_masks_minority_value_fault():
    """One faulty replica returns different bytes; majority wins."""
    s = DuplicateSuppressor()
    s.expect("op", votes_needed=2)
    assert s.offer("op", b"WRONG", responder="bad")[0] == DuplicateSuppressor.PENDING
    assert s.offer("op", b"good", responder="r1")[0] == DuplicateSuppressor.PENDING
    verdict, payload = s.offer("op", b"good", responder="r2")
    assert verdict == DuplicateSuppressor.DELIVER
    assert payload == b"good"


def test_same_responder_cannot_vote_twice():
    s = DuplicateSuppressor()
    s.expect("op", votes_needed=2)
    assert s.offer("op", b"x", responder="r0")[0] == DuplicateSuppressor.PENDING
    assert s.offer("op", b"x", responder="r0")[0] == DuplicateSuppressor.DUPLICATE
    assert s.offer("op", b"x", responder="r1")[0] == DuplicateSuppressor.DELIVER


def test_expect_is_idempotent():
    s = DuplicateSuppressor()
    s.expect("op", votes_needed=2)
    s.expect("op", votes_needed=1)  # later expect does not weaken voting
    assert s.offer("op", b"x", responder="a")[0] == DuplicateSuppressor.PENDING


def test_expect_after_delivery_is_ignored():
    s = DuplicateSuppressor()
    s.expect("op")
    s.offer("op", b"x")
    s.expect("op")
    assert s.offer("op", b"x")[0] == DuplicateSuppressor.DUPLICATE


def test_cancel_removes_expectation():
    s = DuplicateSuppressor()
    s.expect("op")
    s.cancel("op")
    assert s.offer("op", b"x")[0] == DuplicateSuppressor.UNEXPECTED


def test_delivered_memory_is_bounded():
    s = DuplicateSuppressor(remember_delivered=10)
    for i in range(25):
        s.expect(i)
        s.offer(i, b"r")
    # The oldest delivered keys have been evicted, payload and all.
    assert not s.was_delivered(0)
    assert s.delivered(0) is None
    assert s.was_delivered(24)
    assert s.delivered(24) == b"r"


def test_independent_keys_do_not_interfere():
    s = DuplicateSuppressor()
    s.expect("a")
    s.expect("b")
    assert s.offer("a", b"ra")[0] == DuplicateSuppressor.DELIVER
    assert s.offer("b", b"rb")[0] == DuplicateSuppressor.DELIVER


@given(st.integers(1, 7), st.integers(1, 7))
def test_exactly_one_delivery_property(replicas, votes_needed):
    """However many replica responses arrive, at most one is delivered,
    and it is delivered iff enough identical votes arrived."""
    s = DuplicateSuppressor()
    s.expect("op", votes_needed=votes_needed)
    delivered = 0
    for i in range(replicas):
        verdict, _ = s.offer("op", b"same", responder=f"r{i}")
        if verdict == DuplicateSuppressor.DELIVER:
            delivered += 1
    assert delivered == (1 if replicas >= votes_needed else 0)


# ----------------------------------------------------------------------
# requorum: the one place a pending expectation is re-decided
# ----------------------------------------------------------------------

D = DuplicateSuppressor
KEEP = DuplicateSuppressor.UNCHANGED

# (name,
#  expectations in registration order: (key, votes registered, votes held
#    as (payload, responder) pairs),
#  what each responder group needs now,
#  what requorum must return, in order,
#  verdict of one late copy b"v" from a fresh responder per key afterwards)
REQUORUM_CASES = [
    ("lowered requirement frees the payload that has enough votes",
     [((7, "c", 1), 2, [(b"v", "r0")])],
     {7: 1},
     [((7, "c", 1), b"v")],
     {(7, "c", 1): D.DUPLICATE}),
    ("lowered but still short stays pending under the new requirement",
     [((7, "c", 1), 3, [(b"v", "r0")])],
     {7: 2},
     [],
     {(7, "c", 1): D.DELIVER}),
    ("the payload with enough votes wins, not the first one seen",
     [((7, "c", 1), 3, [(b"x", "r0"), (b"v", "r1"), (b"v", "r2")])],
     {7: 2},
     [((7, "c", 1), b"v")],
     {(7, "c", 1): D.DUPLICATE}),
    ("an unanswerable group drops the expectation, with no payload",
     [((7, "c", 1), 2, [(b"v", "r0")])],
     {7: None},
     [((7, "c", 1), None)],
     {(7, "c", 1): D.UNEXPECTED}),
    ("unanswerable is not a voting matter: one vote needed, none held",
     [((7, "c", 1), 1, [])],
     {7: None},
     [((7, "c", 1), None)],
     {(7, "c", 1): D.UNEXPECTED}),
    ("a requirement is never raised",
     [((7, "c", 1), 1, [])],
     {7: 3},
     [],
     {(7, "c", 1): D.DELIVER}),
    ("an equal requirement changes nothing",
     [((7, "c", 1), 2, [(b"v", "r0")])],
     {7: 2},
     [],
     {(7, "c", 1): D.DELIVER}),
    ("no opinion leaves the group alone",
     [((-1, "c", 1), 2, [(b"v", "r0")])],
     {-1: KEEP},
     [],
     {(-1, "c", 1): D.DELIVER}),
    ("mixed groups settle in registration order, not group order",
     [((9, "c", 1), 2, [(b"v", "r0")]),
      ((7, "c", 2), 2, []),
      ((-1, "c", 3), 2, [(b"v", "r0")]),
      ((8, "c", 4), 2, [(b"v", "r0")]),
      ((9, "c", 5), 2, []),
      ((7, "d", 6), 1, [])],
     {9: 1, 7: None, -1: KEEP, 8: 2},
     [((9, "c", 1), b"v"), ((7, "c", 2), None), ((7, "d", 6), None)],
     {(9, "c", 1): D.DUPLICATE, (7, "c", 2): D.UNEXPECTED,
      (-1, "c", 3): D.DELIVER, (8, "c", 4): D.DELIVER,
      (9, "c", 5): D.DELIVER, (7, "d", 6): D.UNEXPECTED}),
]


@pytest.mark.parametrize(
    "expectations, needs, settled, late", [c[1:] for c in REQUORUM_CASES],
    ids=[c[0] for c in REQUORUM_CASES])
def test_requorum(expectations, needs, settled, late):
    handed = []
    s = DuplicateSuppressor(settle=lambda *args: handed.append(args))
    for key, votes, held in expectations:
        s.expect(key, votes_needed=votes, waiter=("waiter", key))
        for payload, responder in held:
            assert s.offer(key, payload, responder=responder)[0] == D.PENDING
    asked = []

    def votes_needed(group):
        asked.append(group)
        return needs[group]

    s.requorum(votes_needed)
    # Each settled expectation hands its own waiter back, once, in
    # registration order: RELAXED with the freed payload, or DROPPED.
    assert handed == [
        (key, ("waiter", key), D.DROPPED if payload is None else D.RELAXED,
         payload) for key, payload in settled]
    # Each responder group is asked once, however many expectations it has.
    assert sorted(asked) == sorted(needs)
    freed = {key: payload for key, payload in settled if payload is not None}
    # Exactly the freed keys are delivered, each with its agreed payload.
    assert {key: s.delivered(key) for key, _, _ in expectations
            if s.was_delivered(key)} == freed
    assert s.pending_count == len(expectations) - len(settled)
    # A second sweep with the same answers settles nothing more.
    s.requorum(needs.__getitem__)
    assert len(handed) == len(settled)
    for key, verdict in late.items():
        assert s.offer(key, b"v", responder="late")[0] == verdict, key


@given(st.lists(st.tuples(
    st.sampled_from(["expect", "offer", "requorum", "forget"]),
    st.integers(0, 3), st.integers(0, 3)), max_size=40))
def test_every_waiter_comes_back_exactly_once_property(steps):
    """However expectations, copies, quorum sweeps and purges interleave,
    every waiter attached is handed back exactly once: to the settle
    function by ``offer``, ``requorum`` or ``forget_where``, or by the
    ``expect`` that displaced it."""
    back = []
    s = DuplicateSuppressor(
        settle=lambda key, waiter, outcome, payload: back.append(
            (waiter, outcome, payload)))
    attached = []
    needs = [None, 1, 2, D.UNCHANGED]
    for action, a, b in steps:
        key = (a % 2, a)
        if action == "expect":
            if s.was_delivered(key):
                continue  # not expected again: nothing would attach
            attached.append(len(attached))
            displaced = s.expect(key, votes_needed=b + 1,
                                 waiter=attached[-1])
            if displaced is not None:
                back.append((displaced, "displaced", None))
        elif action == "offer":
            s.offer(key, bytes([b % 2]), responder=f"r{b}")
        elif action == "requorum":
            s.requorum({0: needs[a], 1: needs[b]}.__getitem__)
        else:
            s.forget_where(lambda k: k[1] == a)
    s.forget_where(lambda k: True)
    assert s.pending_count == 0
    assert sorted(waiter for waiter, _, _ in back) == attached
    for _, outcome, payload in back:
        assert (payload is not None) == (outcome in (D.DELIVER, D.RELAXED))


def test_a_waiter_attaches_to_an_expectation_registered_without_one():
    """A gateway mirrors a peer's request with no waiter; the client's
    reissue, failed over to it, attaches one — keeping the requirement
    and the votes already held."""
    handed = []
    s = DuplicateSuppressor(settle=lambda *args: handed.append(args))
    s.expect("op", votes_needed=2)
    assert s.offer("op", b"x", responder="r0")[0] == D.PENDING
    assert s.waiter("op") is None and s.waiters() == []
    assert s.expect("op", votes_needed=1, waiter="w") is None
    assert s.waiters() == [("op", "w")]
    # A second waiter displaces the first, which comes back.
    assert s.expect("op", waiter="w2") == "w"
    assert s.offer("op", b"x", responder="r1")[0] == D.DELIVER
    assert handed == [("op", "w2", D.DELIVER, b"x")]
    assert s.waiters() == []


def test_detach_keeps_the_expectation():
    """A cancelled request's waiter leaves; the response is still
    remembered when it comes, settled with no waiter."""
    handed = []
    s = DuplicateSuppressor(settle=lambda *args: handed.append(args))
    s.expect("op", waiter="w")
    assert s.detach("op") == "w"
    assert s.is_expected("op") and s.waiter("op") is None
    assert s.offer("op", b"x")[0] == D.DELIVER
    assert handed == [("op", None, D.DELIVER, b"x")]
