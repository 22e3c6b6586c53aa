"""Unit tests for duplicate response suppression and voting (section 3.3)."""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import DuplicateSuppressor
from repro.core.duplicates import DedupTable


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
    assert s._delivered.get("op1") == b"reply"


def test_unexpected_response_reported():
    s = DuplicateSuppressor()
    verdict, payload = s.offer("unknown", b"x")
    assert verdict == DuplicateSuppressor.UNEXPECTED
    assert payload is None
    assert s._delivered.get("unknown") is None
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


def test_delivered_memory_is_bounded():
    s = DuplicateSuppressor(remember_delivered=10)
    for i in range(25):
        s.expect(i)
        s.offer(i, b"r")
    # The oldest delivered keys have been evicted, payload and all.
    assert not s.was_delivered(0)
    assert s._delivered.get(0) is None
    assert s.was_delivered(24)
    assert s._delivered.get(24) == b"r"


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
    assert {key: s._delivered.get(key) for key, _, _ in expectations
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
    function by ``offer``, ``requorum`` or ``forget``, or by the
    ``expect`` that displaced it — and the waiter index ends empty."""
    back = []
    s = DuplicateSuppressor(
        settle=lambda key, waiter, outcome, payload: back.append(
            (waiter, outcome, payload)))
    attached = []
    needs = [None, 1, 2, D.UNCHANGED]
    for action, a, b in steps:
        key = (a % 2, "c", a)
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
            s.forget((a % 2, "c"))
    s.forget((0, "c"))
    s.forget((1, "c"))
    assert s.pending_count == 0 and s._waiting == {}
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
    assert s._pending["op"].waiter is None and s.waiters() == []
    assert s.expect("op", votes_needed=1, waiter="w") is None
    assert s.waiters() == [("op", "w")]
    # A second waiter displaces the first, which comes back.
    assert s.expect("op", waiter="w2") == "w"
    assert s.offer("op", b"x", responder="r1")[0] == D.DELIVER
    assert handed == [("op", "w2", D.DELIVER, b"x")]
    assert s.waiters() == []


# ----------------------------------------------------------------------
# DedupTable: records per client, retired by the client's floor
# ----------------------------------------------------------------------

def test_a_floor_retires_its_clients_records_and_no_one_elses():
    table = DedupTable(limit=100)
    for op in (1, 2, 3):
        table.put(("g", "a", op), f"a{op}")
    table.put(("g", "b", 1), "b1")
    assert table.retire(("g", "a"), 3) == 2
    assert sorted(table) == [("g", "a", 3), ("g", "b", 1)]
    assert table.get(("g", "a", 1)) is None
    assert table.admit(("g", "a", 1), None, None, "retired") == "retired"
    assert table.admit(("g", "b", 1), None, None, "retired") == "b1"
    table.put(("g", "a", 2), "late")          # below the floor: not kept
    assert len(table) == 2 and table.stats == {"retired": 2, "evicted": 0}
    # A floor never falls back.
    assert table.retire(("g", "a"), 1) == 0
    assert table.admit(("g", "a", 2), 1, None, "retired") == "retired"


def test_the_backstop_evicts_the_client_whose_floor_moved_least_recently():
    table = DedupTable(limit=3)
    for client in "abc":
        table.put(("g", client, 1), client)
    table.retire(("g", "a"), 1)               # a is alive: last in line
    table.put(("g", "d", 1), "d")
    assert sorted(key[1] for key in table) == ["a", "c", "d"]
    assert table.stats["evicted"] == 1


def test_a_snapshot_carries_records_and_floors():
    table = DedupTable(limit=100)
    table.put(("g", "a", 1), "a1")
    table.put(("g", "a", 2), "a2")
    table.retire(("g", "a"), 2)
    table.put(("g", "b", 7), "b7")
    joiner = DedupTable(limit=100)
    joiner.install(table.snapshot())
    assert dict(joiner.items()) == dict(table.items()) == {
        ("g", "a", 2): "a2", ("g", "b", 7): "b7"}
    assert joiner.admit(("g", "a", 1), None, None, "retired") == "retired"
    assert list(joiner.clients()) == list(table.clients())


def test_a_response_below_the_floor_is_a_duplicate():
    s = DuplicateSuppressor()
    s.expect(("g", "c", 1))
    s.offer(("g", "c", 1), b"r1")
    s._delivered.admit(("g", "c", 2), 2)
    assert not s._delivered.get(("g", "c", 1))
    assert s.offer(("g", "c", 1), b"r1")[0] == DuplicateSuppressor.DUPLICATE
    assert s.offer(("g", "c", 2), b"r2")[0] == DuplicateSuppressor.UNEXPECTED
    assert s.expect(("g", "c", 1)) is None and not s.is_expected(("g", "c", 1))


def test_a_one_shot_client_stores_no_floor():
    """A farm client makes one call: its request carries a floor, and
    the table keeps its record and nothing else for it."""
    table = DedupTable(limit=100)
    for client in ("a", "b", "c"):
        key = ("g", client, 1)
        assert table.admit(key, 1) is None              # its INVOCATION
        table.put(key, f"reply {client}")               # its response
    assert table.floors == {} and len(table) == 3
    assert list(table.clients()) == [
        (("g", client), 1, None) for client in ("a", "b", "c")]


def test_a_floor_that_did_not_rise_touches_nothing():
    table = DedupTable(limit=100)
    table.put(("g", "a", 1), "a1")
    table.admit(("g", "a", 2), 2, "a2")                 # retires a1
    table.put(("g", "b", 1), "b1")
    before = (list(table.items()), dict(table.floors), dict(table.stats))
    with mock.patch.object(DedupTable, "retire",
                           side_effect=AssertionError("retire called")):
        for floor in (2, 1, None):                      # equal, lower, none
            assert table.admit(("g", "a", 2), floor, "again") == "a2"
            assert table.admit(("g", "a", 3), floor) is None
    assert (list(table.items()), table.floors, table.stats) == before


class TableModel:
    """The dedup table's semantics on plain dicts: records in the order
    the backstop reaches them, and floors."""

    def __init__(self, limit):
        self.limit = limit
        self.records = {}
        self.floors = {}
        self.retired = self.evicted = 0

    def held(self, client):
        return [key for key in self.records if key[:2] == client]

    def put(self, key, value):
        floor = self.floors.get(key[:2])
        if key not in self.records and floor is not None and key[2] < floor:
            return
        self.records[key] = value
        while len(self.records) > self.limit:
            gone = next(iter(self.records))
            del self.records[gone]
            self.evicted += 1
            if not self.held(gone[:2]):
                self.floors.pop(gone[:2], None)

    def retire(self, client, floor):
        stored = self.floors.get(client)
        if stored is not None and not stored < floor:
            return 0
        held = self.held(client)
        if held or stored is not None:
            self.floors[client] = floor
        gone = 0
        for key in held:
            value = self.records.pop(key)
            if key[2] < floor:
                gone += 1
            else:
                self.records[key] = value
        self.retired += gone
        return gone

    def admit(self, key, floor, record):
        if floor is not None:
            self.retire(key[:2], floor)
        if key in self.records:
            return self.records[key]
        stored = self.floors.get(key[:2])
        if stored is not None and key[2] < stored:
            return "retired"
        if record is not None:
            self.put(key, record)
        return None

    def forget(self, client):
        self.floors.pop(client, None)
        held = self.held(client)
        for key in held:
            del self.records[key]
        return len(held)

    def install(self, snapshot):
        self.records, self.floors = {}, {}
        for client, (floor, records) in snapshot.items():
            if floor is not None:
                self.floors[client] = floor
        for client, (_, records) in snapshot.items():
            for op, value in records.items():
                self.put(client + (op,), value)


CLIENTS = st.tuples(st.sampled_from([1, 2]), st.sampled_from(["a", "b"]))
OPS = st.integers(0, 5)


@given(st.lists(st.one_of(
    st.tuples(st.just("put"), CLIENTS, OPS, st.integers(0, 9)),
    st.tuples(st.just("admit"), CLIENTS, OPS,
              st.one_of(st.none(), OPS), st.booleans()),
    st.tuples(st.just("retire"), CLIENTS, OPS),
    st.tuples(st.just("forget"), CLIENTS),
    st.tuples(st.just("transfer"))), max_size=60),
    st.integers(1, 8))
def test_the_table_behaves_as_its_model_property(steps, limit):
    """Records, floors, the order the backstop evicts in and the counts
    all follow the plain model, whatever puts, admissions, retirements,
    purges and state transfers (snapshot, then install at a joiner that
    carries on) interleave."""
    table, model = DedupTable(limit), TableModel(limit)
    for step in steps:
        action, args = step[0], step[1:]
        if action == "put":
            client, op, value = args
            table.put(client + (op,), value)
            model.put(client + (op,), value)
        elif action == "admit":
            client, op, floor, records = args
            record = f"new {op}" if records else None
            assert (table.admit(client + (op,), floor, record, "retired")
                    == model.admit(client + (op,), floor, record))
        elif action == "retire":
            client, floor = args
            assert table.retire(client, floor) == model.retire(client, floor)
        elif action == "forget":
            assert table.forget(args[0]) == model.forget(args[0])
        else:
            snapshot = table.snapshot()
            assert snapshot == {
                client: (model.floors.get(client),
                         {key[2]: model.records[key]
                          for key in model.held(client)})
                for client in {key[:2] for key in model.records}
                | set(model.floors)}
            table = DedupTable(limit)
            table.install(snapshot)
            model.install(snapshot)
            table.stats.update(retired=model.retired, evicted=model.evicted)
        assert list(table.items()) == list(model.records.items())
        assert table.floors == model.floors
        assert table._room == limit - len(table)
        assert table.stats == {"retired": model.retired,
                               "evicted": model.evicted}
        assert sorted(table.clients()) == sorted(
            (client, len(model.held(client)), model.floors.get(client))
            for client in {key[:2] for key in model.records}
            | set(model.floors))
