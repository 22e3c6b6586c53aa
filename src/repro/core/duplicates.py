"""Duplicate detection and suppression of responses (paper section 3.3).

With active replication, *every* replica of the server returns a
response; the receiver — a gateway, or the Replication Mechanisms of an
invoking group — must deliver exactly one copy and discard the rest,
comparing response identifiers.  With active-with-voting replication,
the receiver instead delivers the first response value returned by a
majority of replicas, masking value faults of a minority.

:class:`DuplicateSuppressor` implements both receiver policies keyed by
the (source group, client id, operation id) deduplication key, and
remembers recently delivered operations with their agreed payload, so
that late duplicates — even ones arriving after delivery — are still
recognised, and a reissue can be answered from that memory.  The
memory is a :class:`DedupTable`: one dict keyed by the dedup key, so a
lookup is one dict operation, retired client by client by the client's
own progress — its *floor*, the lowest operation it still awaits — so
what a receiver holds is bounded by its live clients, not by its
history.

An expectation is also the receiver's wait: it holds the receiver's
*waiter* (or none — a gateway mirroring a peer's request) and hands it
to the owner's one settle function when the key stops being expected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Optional, Set, Tuple


class DedupTable(dict):
    """What a receiver remembers of completed operations: the dedup key
    -> value map of a duplicate filter's delivered memory and of a
    replica's invocation records.  The table *is* that dict, so whether
    a key is held is one dict operation (``key in table``,
    ``table.get(key)``).

    A key ``(group, client, op)`` names its client, the pair ``(group,
    client)``, and its operation; any other key is kept as it is, never
    retired.  A client's records are retired by its **floor**, the
    lowest operation it still awaits, which its requests carry
    (:meth:`admit`).  An operation below its client's floor is a
    duplicate by definition and is never recorded again.  ``floors``
    holds a client's floor from the first request that found a record
    of it here, so a one-shot client costs its record and nothing more.
    Retiring costs the client's own records, never a scan of the table.

    ``limit`` records in all is the backstop for clients that never
    return: beyond it the oldest record goes (a client's records count
    as new each time its floor moves), and a client's floor goes with
    its last record, counted in ``stats["evicted"]``;
    ``stats["retired"]`` counts records retired.
    """

    __slots__ = ("floors", "_keys", "limit", "_room", "stats")

    def __init__(self, limit: int) -> None:
        super().__init__()
        # (group, client) -> the client's floor.
        self.floors: Dict[Tuple[Any, Any], Any] = {}
        # group -> client -> the key of the client's one record, or the
        # list of its records' keys: what retiring reads.  The keys are
        # the records' own, and the two levels spare a one-shot client
        # a tuple of its own.
        self._keys: Dict[Any, Dict[Any, Any]] = {}
        self.limit = limit
        # Records the table may still take before the backstop evicts.
        self._room = limit
        self.stats = {"retired": 0, "evicted": 0}

    def admit(self, key: Hashable, floor: Any = None, record: Any = None,
              retired: Any = True) -> Any:
        """An operation ``key`` arrives carrying its client's ``floor``
        (None: none): raise the floor if it rose, then look the key up.
        Returns the value held for ``key``; else ``retired`` if it is
        below its client's floor; else None, having recorded ``record``
        for it if one is given."""
        if type(key) is tuple:
            floors = self.floors
            client = stored = None
            if floors:
                client = key[:2]
                if client in floors:
                    stored = floors[client]
            if floor is None:
                pass
            elif stored is not None:
                if stored < floor:
                    self.retire(client, floor)
                    stored = floor
            elif key[0] in self._keys and key[1] in self._keys[key[0]]:
                self.retire(key[:2], floor)    # stores its first floor
                stored = floor
            if key in self:
                return self[key]
            if stored is not None and key[2] < stored:
                return retired
            if record is None:
                return None
            if key[0] in self._keys:
                held = self._keys[key[0]]
            else:
                held = self._keys[key[0]] = {}
            who = key[1]
            if who not in held:
                held[who] = key
            elif type(held[who]) is list:
                held[who].append(key)
            else:
                held[who] = [held[who], key]
        elif key in self:
            return self[key]
        elif record is None:
            return None
        self[key] = record
        self._room -= 1
        if self._room < 0:
            self._evict()
        return None

    def put(self, key: Hashable, value: Any) -> None:
        """Record ``value`` for ``key``, in place of what is held for it
        (one below its client's floor is not recorded)."""
        if key in self:
            self[key] = value
        else:
            self.admit(key, None, value)

    def retire(self, client: Tuple[Any, Any], floor: Any) -> int:
        """Raise ``client``'s floor to ``floor`` and drop its records
        below it; returns how many went.  The records it keeps count as
        new for the backstop: a client whose floor moves is alive.  A
        floor never falls, and a client that holds nothing here and has
        no floor yet stores none."""
        floors = self.floors
        floored = client in floors
        if floored and not floors[client] < floor:
            return 0
        group, who = client
        if group not in self._keys or who not in self._keys[group]:
            if floored:
                floors[client] = floor
            return 0
        floors[client] = floor
        held = self._keys[group]
        keys = held[who] if type(held[who]) is list else (held[who],)
        kept = []
        for key in keys:
            if key[2] < floor:
                del self[key]
            else:
                value = self[key]
                del self[key]
                self[key] = value
                kept.append(key)
        if not kept:
            del held[who]
        else:
            held[who] = kept if kept[1:] else kept[0]
        gone = len(keys) - len(kept)
        self._room += gone
        self.stats["retired"] += gone
        return gone

    def forget(self, client: Tuple[Any, Any]) -> int:
        """Drop ``client``'s records and its floor; returns how many
        records went."""
        self.floors.pop(client, None)
        held = self._keys.get(client[0])
        keys = None if held is None else held.pop(client[1], None)
        if keys is None:
            return 0
        keys = keys if type(keys) is list else (keys,)
        for key in keys:
            del self[key]
        self._room += len(keys)
        return len(keys)

    def clients(self) -> Iterator[Tuple[Tuple[Any, Any], int, Any]]:
        """``(client, records held, floor)`` for every client with a
        record or a floor here."""
        floors = self.floors
        for group, held in self._keys.items():
            for who, keys in held.items():
                client = (group, who)
                yield (client, len(keys) if type(keys) is list else 1,
                       floors.get(client))
        for client, floor in floors.items():
            if client[1] not in self._keys.get(client[0], ()):
                yield client, 0, floor

    def snapshot(self) -> Dict[Tuple[Any, Any], Tuple[Any, Dict[Any, Any]]]:
        """client -> (floor, {op: value}): plain data for a state
        transfer (values are shared, never mutated in place)."""
        snapshot = {}
        for group, held in self._keys.items():
            for who, keys in held.items():
                client = (group, who)
                snapshot[client] = (self.floors.get(client), {
                    key[2]: self[key]
                    for key in (keys if type(keys) is list else (keys,))})
        for client, floor in self.floors.items():
            snapshot.setdefault(client, (floor, {}))
        return snapshot

    def install(self, snapshot: Dict[Tuple[Any, Any],
                                     Tuple[Any, Dict[Any, Any]]]) -> None:
        """Replace this table's contents with a :meth:`snapshot`."""
        self.clear()
        self._room = self.limit
        self.floors = {client: floor
                       for client, (floor, _) in snapshot.items()
                       if floor is not None}
        self._keys = {}
        for client, (_, records) in snapshot.items():
            for op, value in records.items():
                self.put(client + (op,), value)

    def _evict(self) -> None:
        while self._room < 0:
            key = next(iter(self))
            del self[key]
            self._room += 1
            self.stats["evicted"] += 1
            if type(key) is not tuple:
                continue
            held = self._keys[key[0]]
            keys = held[key[1]]
            if type(keys) is not list:
                del held[key[1]]
                self.floors.pop(key[:2], None)   # its last record
            else:
                keys.remove(key)
                if len(keys) == 1:
                    held[key[1]] = keys[0]


@dataclass(slots=True)
class _Pending:
    votes_needed: int
    waiter: Any = None
    # The waiter's client, as the suppressor indexes it (None: no waiter).
    client: Any = None
    # Votes per payload and who cast them, kept only while more than one
    # vote is needed: a single-vote expectation delivers its first copy.
    counts: Optional[Dict[bytes, int]] = None
    responders: Optional[Set[Hashable]] = None


class DuplicateSuppressor:
    """First-wins or majority-vote response delivery with dedup."""

    # offer() verdicts
    DELIVER = "deliver"        # deliver this payload now (exactly once)
    DUPLICATE = "duplicate"    # delivered, or below its floor: suppress
    PENDING = "pending"        # voting: not enough agreeing votes yet
    UNEXPECTED = "unexpected"  # no expectation registered for this key

    # How an expectation ends, besides DELIVER (see requorum and
    # forget); the last two carry no payload.
    RELAXED = "vote_relaxed"
    DROPPED = "unservable"
    FORGOTTEN = "forgotten"

    # requorum(): "whatever it needs already" — no requirement is raised.
    UNCHANGED = float("inf")

    def __init__(self, remember_delivered: int = 100_000,
                 settle=None) -> None:
        self._pending: Dict[Hashable, _Pending] = {}
        # Delivered key -> the payload delivered for it, retired client by
        # client.
        self._delivered = DedupTable(remember_delivered)
        # ``retired`` / ``evicted`` records of the delivered memory.
        self.stats = self._delivered.stats
        # client -> {key: None} of its expectations that have a waiter,
        # in registration order (a (group, client, op) key's client is
        # its first two items; any other key is its own client).
        self._waiting: Dict[Hashable, Dict[Hashable, None]] = {}
        # settle(key, waiter, outcome, payload), once per key that stops
        # being expected, after the filter's own state has moved.
        self._settle = settle or (lambda *settlement: None)

    # ------------------------------------------------------------------

    def expect(self, key: Hashable, votes_needed: int = 1,
               waiter: Any = None) -> Any:
        """Announce interest in responses for ``key``, on behalf of
        ``waiter`` (None: remember the response, nobody waits here).

        ``votes_needed`` is 1 for plain active/passive replication and
        the majority size for active-with-voting.  Expecting a key again
        keeps its requirement and votes; a waiter given then replaces
        the one attached, which is returned.  A delivered key, or one
        below its client's floor, is not expected again."""
        delivered = self._delivered
        if key in delivered:
            return None
        floors = delivered.floors
        if floors and type(key) is tuple and key[:2] in floors and (
                key[2] < floors[key[:2]]):
            return None
        if key not in self._pending:
            if votes_needed > 1:
                pending = _Pending(votes_needed, counts={}, responders=set())
            else:
                pending = _Pending(1)
            self._pending[key] = pending
            displaced = None
        elif waiter is None:
            return None
        else:
            pending = self._pending[key]
            displaced = pending.waiter
        if waiter is not None:
            pending.waiter = waiter
            if displaced is None:
                client = pending.client = (
                    key[:2] if type(key) is tuple else key)
                if client in self._waiting:
                    self._waiting[client][key] = None
                else:
                    self._waiting[client] = {key: None}
        return displaced

    def is_expected(self, key: Hashable) -> bool:
        return key in self._pending

    def waiters(self) -> List[Tuple[Hashable, Any]]:
        """``(key, waiter)`` of every expectation with a waiter, in
        registration order."""
        return [(key, pending.waiter)
                for key, pending in self._pending.items()
                if pending.waiter is not None]

    def awaited(self, client: Hashable) -> Dict[Hashable, None]:
        """The keys of ``client``'s expectations that have a waiter, in
        registration order (empty: none)."""
        return self._waiting.get(client, {})

    def was_delivered(self, key: Hashable) -> bool:
        """Delivered here, or below its client's floor: retired, a
        duplicate by definition."""
        delivered = self._delivered
        if key in delivered:
            return True
        floors = delivered.floors
        return (type(key) is tuple and key[:2] in floors
                and key[2] < floors[key[:2]])

    def offer(self, key: Hashable, payload: bytes,
              responder: Optional[Hashable] = None) -> Tuple[str, Optional[bytes]]:
        """Offer one response copy; returns (verdict, payload-to-deliver).
        A ``DELIVER`` is settled before this returns."""
        pending = self._pending.get(key)
        if pending is None:
            if key in self._delivered or self.was_delivered(key):
                return (DuplicateSuppressor.DUPLICATE, None)
            return (DuplicateSuppressor.UNEXPECTED, None)
        counts = pending.counts
        if counts is not None:
            if responder is not None:
                if responder in pending.responders:
                    # The same replica re-sent its response (e.g.
                    # recovery replay): not a fresh vote.
                    return (DuplicateSuppressor.DUPLICATE, None)
                pending.responders.add(responder)
            votes = counts[payload] = counts.get(payload, 0) + 1
            if votes < pending.votes_needed:
                return (DuplicateSuppressor.PENDING, None)
        del self._pending[key]
        self._delivered.admit(key, None, payload)
        if pending.client is not None:
            keys = self._waiting[pending.client]
            del keys[key]
            if not keys:
                del self._waiting[pending.client]
        self._settle(key, pending.waiter, DuplicateSuppressor.DELIVER,
                     payload)
        return (DuplicateSuppressor.DELIVER, payload)

    @property
    def pending_count(self) -> int:
        """Expectations still awaiting delivery (0 at quiescence)."""
        return len(self._pending)

    def register_audit(self, scope, owner: str = "", active=None,
                       prefix: str = "filter",
                       gauge_prefix: Optional[str] = None) -> None:
        """Declare this suppressor's maps to a resource-audit scope.

        Every expectation must eventually resolve (response delivered,
        dropped, or purged with its client), so ``_pending`` floors at
        zero; the delivered-memory is legitimately full up to its
        remember window."""
        gp = gauge_prefix
        scope.register(f"{prefix}.pending", lambda: len(self._pending),
                       floor=0, owner=owner, active=active,
                       gauge=None if gp is None else f"{gp}.pending")
        scope.register(f"{prefix}.delivered", lambda: len(self._delivered),
                       floor=lambda: self._delivered.limit, owner=owner,
                       active=active,
                       gauge=None if gp is None else f"{gp}.delivered")
        # A waiter's index entry goes with its expectation.
        scope.register(f"{prefix}.waiting", lambda: len(self._waiting),
                       floor=0, owner=owner, active=active)

    def requorum(self, votes_needed) -> None:
        """Re-decide every pending expectation against what its
        responder group needs *now*, and settle what that ends.

        Keys are ``(responder group, ...)`` tuples.  ``votes_needed``
        maps a responder group to the votes a response from it needs at
        this instant: ``None`` when the group can never answer again,
        :attr:`UNCHANGED` when the caller has no opinion on it.  The
        caller invokes this whenever the answer may have dropped — a
        membership install, a live style switch; both are total-order
        events, so every receiver re-decides at the same point.

        An expectation whose group can never answer is dropped (a late
        copy is ``UNEXPECTED``) and settled ``DROPPED``; a requirement
        is only ever lowered; a payload that already has the lowered
        number of votes is marked delivered (late copies are
        ``DUPLICATE``) and settled ``RELAXED``.  All are re-decided
        first, then settled in registration order."""
        settled = []
        needs: Dict[Hashable, Optional[float]] = {}  # asked once per group
        for key, pending in list(self._pending.items()):
            group = key[0]
            if group not in needs:
                needs[group] = votes_needed(group)
            need = needs[group]
            if need is None:
                self._end(key)
                settled.append((key, pending.waiter,
                                DuplicateSuppressor.DROPPED, None))
            elif need < pending.votes_needed:
                pending.votes_needed = need
                for payload, count in (pending.counts or {}).items():
                    if count >= need:
                        self._end(key)
                        self._delivered.admit(key, None, payload)
                        settled.append((key, pending.waiter,
                                        DuplicateSuppressor.RELAXED, payload))
                        break
        for settlement in settled:
            self._settle(*settlement)

    def forget(self, client: Tuple[Any, Any]) -> int:
        """Drop ``client``'s pending expectations (each settled
        ``FORGOTTEN``), its delivered memory and its floor; returns how
        many entries were removed.

        Used when all state for a client is purged (CLIENT_GONE): a
        later reincarnation of the same identifiers must be re-servable,
        not silently suppressed.
        """
        dropped = [(key, self._end(key).waiter) for key in [
            key for key in self._pending
            if type(key) is tuple and key[:2] == client]]
        forgotten = self._delivered.forget(client)
        for key, waiter in dropped:
            self._settle(key, waiter, DuplicateSuppressor.FORGOTTEN, None)
        return len(dropped) + forgotten

    # ------------------------------------------------------------------

    def _end(self, key: Hashable) -> _Pending:
        """Stop expecting ``key``; its expectation, unindexed."""
        pending = self._pending.pop(key)
        if pending.client is not None:
            keys = self._waiting[pending.client]
            del keys[key]
            if not keys:
                del self._waiting[pending.client]
        return pending
