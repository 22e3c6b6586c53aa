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
recognised, and a reissue can be answered from that memory.

An expectation is also the receiver's wait: it holds the receiver's
*waiter* (or none — a gateway mirroring a peer's request) and hands it
to the owner's one settle function when the key stops being expected.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple


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
    DUPLICATE = "duplicate"    # already delivered: suppress
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
        # Delivered key -> the payload delivered for it, oldest first.
        self._delivered: "OrderedDict[Hashable, bytes]" = OrderedDict()
        self._remember = remember_delivered
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
        the one attached, which is returned.  A delivered key is not
        expected again."""
        if key in self._delivered:
            return None
        if key not in self._pending:
            self._pending[key] = _Pending(max(1, votes_needed), waiter)
        elif waiter is not None:
            pending = self._pending[key]
            displaced, pending.waiter = pending.waiter, waiter
            return displaced
        return None

    def detach(self, key: Hashable) -> Any:
        """Take the waiter off ``key``'s expectation and return it; the
        expectation stays, so a late response is still remembered."""
        pending = self._pending.get(key)
        if pending is None:
            return None
        waiter, pending.waiter = pending.waiter, None
        return waiter

    def cancel(self, key: Hashable) -> None:
        self._pending.pop(key, None)

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
        return key in self._delivered

    def delivered(self, key: Hashable) -> Optional[bytes]:
        """The payload delivered for ``key``, while it is remembered."""
        return self._delivered.get(key)

    def offer(self, key: Hashable, payload: bytes,
              responder: Optional[Hashable] = None) -> Tuple[str, Optional[bytes]]:
        """Offer one response copy; returns (verdict, payload-to-deliver).
        A ``DELIVER`` is settled before this returns."""
        if key in self._delivered:
            return (DuplicateSuppressor.DUPLICATE, None)
        pending = self._pending.get(key)
        if pending is None:
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
        cancelled, or purged with its client), so ``_pending`` floors at
        zero; the delivered-memory is legitimately full up to its
        remember window."""
        gp = gauge_prefix
        scope.register(f"{prefix}.pending", lambda: len(self._pending),
                       floor=0, owner=owner, active=active,
                       gauge=None if gp is None else f"{gp}.pending")
        scope.register(f"{prefix}.delivered", lambda: len(self._delivered),
                       floor=lambda: self._remember, owner=owner,
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
        delivered-memory whose key matches ``predicate``; returns how
        many entries were removed.

        Used when all state for a client is purged (CLIENT_GONE): a
        later reincarnation of the same identifiers must be re-servable,
        not silently suppressed.
        """
        dropped = [(key, self._pending.pop(key).waiter)
                   for key in [k for k in self._pending if predicate(k)]]
        forgotten = [k for k in self._delivered if predicate(k)]
        for key in forgotten:
            del self._delivered[key]
        for key, waiter in dropped:
            self._settle(key, waiter, DuplicateSuppressor.FORGOTTEN, None)
        return len(dropped) + len(forgotten)

    # ------------------------------------------------------------------

    def _mark_delivered(self, key: Hashable, payload: bytes) -> None:
        self._pending.pop(key, None)
        self._delivered[key] = payload
        while len(self._delivered) > self._remember:
            self._delivered.popitem(last=False)
