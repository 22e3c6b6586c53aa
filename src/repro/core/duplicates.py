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
memory is a :class:`DedupTable`: kept per client, and retired by the
client's own progress — its *floor*, the lowest operation it still
awaits — so what a receiver holds is bounded by its live clients, not
by its history.

An expectation is also the receiver's wait: it holds the receiver's
*waiter* (or none — a gateway mirroring a peer's request) and hands it
to the owner's one settle function when the key stops being expected.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterator, List, Optional, Set, Tuple


def _join(client: Hashable, op: Any) -> Hashable:
    return client + (op,) if type(client) is tuple else client


class _Records(dict):
    """A client's records, operation -> value, once it holds more than
    one or carried a floor here; ``floor`` is the lowest operation it
    still awaits (None: it never carried one)."""

    __slots__ = ("floor",)

    def __init__(self, *args: Any, floor: Any = None) -> None:
        super().__init__(*args)
        self.floor = floor


class DedupTable(Mapping):
    """What a receiver remembers of completed operations, client by
    client: the dedup key -> value map of a duplicate filter's delivered
    memory and of a replica's invocation records.

    A key names its client and its operation: a tuple's last item is
    the operation and the rest the client; any other key is a client of
    one operation.  A client's records are retired by its **floor**, the
    lowest operation it still awaits, which its requests carry
    (:meth:`retire`).  An operation below its client's floor is a
    duplicate by definition and is never recorded again; the floor is
    kept from the client's second request on.  Retiring costs the
    client's own records, never a scan of the table.

    ``limit`` records in all is the backstop for clients that never
    return: beyond it the client that least recently carried a floor
    (or, carrying none, came first) loses its oldest record — its floor
    goes with its last one — counted in ``stats["evicted"]``;
    ``stats["retired"]`` counts records retired.
    """

    def __init__(self, limit: int) -> None:
        # client -> its records, the client first to lose one first: an
        # (op, value) pair while it holds one record and no floor (a
        # one-shot client costs no dict of its own), else _Records.
        self._clients: Dict[Hashable, Any] = {}
        self._size = 0
        self.limit = limit
        self.stats = {"retired": 0, "evicted": 0}

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Hashable]:
        for client, held in self._clients.items():
            for op in ((held[0],) if type(held) is tuple else held):
                yield _join(client, op)

    def __getitem__(self, key: Hashable) -> Any:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def get(self, key: Hashable, default: Any = None,
            retired: Any = None) -> Any:
        """The value held for ``key``; else ``retired`` if it is below
        its client's floor (and ``retired`` is given); else
        ``default``."""
        if type(key) is tuple:
            client, op = key[:-1], key[-1]
        else:
            client, op = key, None
        held = self._clients.get(client)
        if held is None:
            return default
        if type(held) is tuple:
            return held[1] if held[0] == op else default
        value = held.get(op)
        if value is not None:
            return value
        if retired is not None and held.floor is not None and op < held.floor:
            return retired
        return default

    def put(self, key: Hashable, value: Any) -> None:
        """Record ``value`` for ``key`` (one below its client's floor is
        not recorded)."""
        if type(key) is tuple:
            client, op = key[:-1], key[-1]
        else:
            client, op = key, None
        clients = self._clients
        held = clients.get(client)
        if held is None:
            clients[client] = (op, value)
            self._size += 1
        elif type(held) is tuple:
            if held[0] == op:
                clients[client] = (op, value)
            else:
                clients[client] = _Records((held, (op, value)))
                self._size += 1
        elif held.floor is None or not op < held.floor:
            if op not in held:
                self._size += 1
            held[op] = value
        if self._size > self.limit:
            self._evict()

    def retire(self, client: Hashable, floor: Any) -> int:
        """Raise ``client``'s floor to ``floor`` and drop its records
        below it; returns how many went.  A client that holds nothing
        here stores no floor: a one-shot client costs no more than its
        record."""
        clients = self._clients
        held = clients.get(client)
        if held is None:
            return 0
        if type(held) is tuple:
            gone = 1 if held[0] < floor else 0
            records = _Records(() if gone else (held,), floor=floor)
        else:
            if held.floor is not None and not held.floor < floor:
                return 0
            held.floor, records, gone = floor, held, 0
            for op in list(held):
                if op < floor:
                    del held[op]
                    gone += 1
        # A client whose floor moves is alive: the backstop reaches it
        # last.
        del clients[client]
        clients[client] = records
        self._size -= gone
        self.stats["retired"] += gone
        return gone

    def forget_where(self, predicate) -> int:
        """Drop the records whose key matches ``predicate``, and the
        floor of each client left with none; returns records dropped."""
        dropped = 0
        for client, held in list(self._clients.items()):
            if type(held) is tuple:
                if predicate(_join(client, held[0])):
                    del self._clients[client]
                    dropped += 1
                continue
            for op in [op for op in held if predicate(_join(client, op))]:
                del held[op]
                dropped += 1
            if not held and (held.floor is None
                             or predicate(_join(client, held.floor))):
                del self._clients[client]
        self._size -= dropped
        return dropped

    def clients(self) -> Iterator[Tuple[Hashable, int, Any]]:
        """``(client, records held, floor)`` for every client here."""
        for client, held in self._clients.items():
            if type(held) is tuple:
                yield client, 1, None
            else:
                yield client, len(held), held.floor

    def snapshot(self) -> Dict[Hashable, Tuple[Any, Dict[Any, Any]]]:
        """client -> (floor, {op: value}): plain data for a state
        transfer (values are shared, never mutated in place)."""
        return {client: ((None, dict((held,))) if type(held) is tuple
                         else (held.floor, dict(held)))
                for client, held in self._clients.items()}

    def install(self, snapshot: Dict[Hashable, Tuple[Any, Dict[Any, Any]]]
                ) -> None:
        """Replace this table's contents with a :meth:`snapshot`."""
        self._clients = {}
        self._size = 0
        for client, (floor, records) in snapshot.items():
            if floor is None and len(records) == 1:
                self._clients[client] = next(iter(records.items()))
            else:
                self._clients[client] = _Records(records, floor=floor)
            self._size += len(records)

    def _evict(self) -> None:
        clients = self._clients
        while self._size > self.limit:
            client = next(iter(clients))
            held = clients[client]
            if type(held) is tuple or len(held) <= 1:
                del clients[client]      # its last record, and its floor
                lost = 1 if type(held) is tuple else len(held)
            else:
                del held[next(iter(held))]
                lost = 1
            self._size -= lost
            self.stats["evicted"] += lost


@dataclass
class _Pending:
    votes_needed: int
    waiter: Any = None
    counts: Dict[bytes, int] = field(default_factory=dict)
    responders: Set[Hashable] = field(default_factory=set)


class DuplicateSuppressor:
    """First-wins or majority-vote response delivery with dedup."""

    # offer() verdicts
    DELIVER = "deliver"        # deliver this payload now (exactly once)
    DUPLICATE = "duplicate"    # delivered, or below its floor: suppress
    PENDING = "pending"        # voting: not enough agreeing votes yet
    UNEXPECTED = "unexpected"  # no expectation registered for this key

    # How an expectation ends, besides DELIVER (see requorum and
    # forget_where); the last two carry no payload.
    RELAXED = "vote_relaxed"
    DROPPED = "unservable"
    FORGOTTEN = "forgotten"

    # requorum(): "whatever it needs already" — no requirement is raised.
    UNCHANGED = float("inf")

    def __init__(self, remember_delivered: int = 100_000,
                 settle=None) -> None:
        self._pending: Dict[Hashable, _Pending] = {}
        # Delivered key -> the payload delivered for it, client by client.
        self._delivered = DedupTable(remember_delivered)
        # ``retired`` / ``evicted`` records of the delivered memory.
        self.stats = self._delivered.stats
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
        if self.was_delivered(key):
            return None
        if key not in self._pending:
            self._pending[key] = _Pending(max(1, votes_needed), waiter)
        elif waiter is not None:
            pending = self._pending[key]
            displaced, pending.waiter = pending.waiter, waiter
            return displaced
        return None

    def is_expected(self, key: Hashable) -> bool:
        return key in self._pending

    def waiter(self, key: Hashable) -> Any:
        """The waiter attached to ``key``'s expectation, if any."""
        return self._pending[key].waiter if key in self._pending else None

    def waiters(self) -> List[Tuple[Hashable, Any]]:
        """``(key, waiter)`` of every expectation with a waiter, in
        registration order."""
        return [(key, pending.waiter)
                for key, pending in self._pending.items()
                if pending.waiter is not None]

    def was_delivered(self, key: Hashable) -> bool:
        """Delivered here, or below its client's floor: retired, a
        duplicate by definition."""
        return self._delivered.get(key, None, True) is not None

    def retire(self, client: Hashable, floor: Any) -> int:
        """``client`` awaits nothing below ``floor``: forget what was
        delivered to it below that (:meth:`DedupTable.retire`)."""
        return self._delivered.retire(client, floor)

    def delivered(self, key: Hashable) -> Optional[bytes]:
        """The payload delivered for ``key``, while it is remembered."""
        return self._delivered.get(key)

    def offer(self, key: Hashable, payload: bytes,
              responder: Optional[Hashable] = None) -> Tuple[str, Optional[bytes]]:
        """Offer one response copy; returns (verdict, payload-to-deliver).
        A ``DELIVER`` is settled before this returns."""
        pending = self._pending.get(key)
        if pending is None:
            if self.was_delivered(key):
                return (DuplicateSuppressor.DUPLICATE, None)
            return (DuplicateSuppressor.UNEXPECTED, None)
        if responder is not None:
            if responder in pending.responders:
                # The same replica re-sent its response (e.g. recovery
                # replay): not a fresh vote.
                return (DuplicateSuppressor.DUPLICATE, None)
            pending.responders.add(responder)
        pending.counts[payload] = pending.counts.get(payload, 0) + 1
        if pending.counts[payload] >= pending.votes_needed:
            self._mark_delivered(key, payload)
            self._settle(key, pending.waiter, DuplicateSuppressor.DELIVER,
                         payload)
            return (DuplicateSuppressor.DELIVER, payload)
        return (DuplicateSuppressor.PENDING, None)

    @property
    def pending_count(self) -> int:
        """Expectations still awaiting delivery (0 at quiescence)."""
        return len(self._pending)

    def register_audit(self, scope, owner: str = "", active=None,
                       prefix: str = "filter",
                       gauge_prefix: Optional[str] = None) -> None:
        """Declare this suppressor's two maps to a resource-audit scope.

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
                del self._pending[key]
                settled.append((key, pending.waiter,
                                DuplicateSuppressor.DROPPED, None))
            elif need < pending.votes_needed:
                pending.votes_needed = need
                for payload, count in pending.counts.items():
                    if count >= need:
                        self._mark_delivered(key, payload)
                        settled.append((key, pending.waiter,
                                        DuplicateSuppressor.RELAXED, payload))
                        break
        for settlement in settled:
            self._settle(*settlement)

    def forget_where(self, predicate) -> int:
        """Drop pending expectations (each settled ``FORGOTTEN``) and
        delivered-memory whose key matches ``predicate`` — with the floor
        of a client left with none; returns how many entries were
        removed.

        Used when all state for a client is purged (CLIENT_GONE): a
        later reincarnation of the same identifiers must be re-servable,
        not silently suppressed.
        """
        dropped = [(key, self._pending.pop(key).waiter)
                   for key in [k for k in self._pending if predicate(k)]]
        forgotten = self._delivered.forget_where(predicate)
        for key, waiter in dropped:
            self._settle(key, waiter, DuplicateSuppressor.FORGOTTEN, None)
        return len(dropped) + forgotten

    # ------------------------------------------------------------------

    def _mark_delivered(self, key: Hashable, payload: bytes) -> None:
        self._pending.pop(key, None)
        self._delivered.put(key, payload)
