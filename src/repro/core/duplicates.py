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
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Set, Tuple


@dataclass
class _Pending:
    votes_needed: int
    counts: Dict[bytes, int] = field(default_factory=dict)
    responders: Set[Hashable] = field(default_factory=set)


class DuplicateSuppressor:
    """First-wins or majority-vote response delivery with dedup."""

    # offer() verdicts
    DELIVER = "deliver"        # deliver this payload now (exactly once)
    DUPLICATE = "duplicate"    # already delivered: suppress
    PENDING = "pending"        # voting: not enough agreeing votes yet
    UNEXPECTED = "unexpected"  # no expectation registered for this key

    # requorum(): "whatever it needs already" — no requirement is raised.
    UNCHANGED = float("inf")

    def __init__(self, remember_delivered: int = 100_000) -> None:
        self._pending: Dict[Hashable, _Pending] = {}
        # Delivered key -> the payload delivered for it, oldest first.
        self._delivered: "OrderedDict[Hashable, bytes]" = OrderedDict()
        self._remember = remember_delivered

    # ------------------------------------------------------------------

    def expect(self, key: Hashable, votes_needed: int = 1) -> None:
        """Announce interest in responses for ``key``.

        ``votes_needed`` is 1 for plain active/passive replication and
        the majority size for active-with-voting.
        """
        if key in self._delivered or key in self._pending:
            return
        self._pending[key] = _Pending(votes_needed=max(1, votes_needed))

    def cancel(self, key: Hashable) -> None:
        self._pending.pop(key, None)

    def is_expected(self, key: Hashable) -> bool:
        return key in self._pending

    def was_delivered(self, key: Hashable) -> bool:
        return key in self._delivered

    def delivered(self, key: Hashable) -> Optional[bytes]:
        """The payload delivered for ``key``, while it is remembered."""
        return self._delivered.get(key)

    def offer(self, key: Hashable, payload: bytes,
              responder: Optional[Hashable] = None) -> Tuple[str, Optional[bytes]]:
        """Offer one response copy; returns (verdict, payload-to-deliver)."""
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

    def requorum(self, votes_needed):
        """Re-decide every pending expectation against what its
        responder group needs *now*; returns what that settles.

        Keys are ``(responder group, ...)`` tuples.  ``votes_needed``
        maps a responder group to the votes a response from it needs at
        this instant: ``None`` when the group can never answer again,
        :attr:`UNCHANGED` when the caller has no opinion on it.  The
        caller invokes this whenever the answer may have dropped — a
        membership install, a live style switch; both are total-order
        events, so every receiver re-decides at the same point.

        In registration order: an expectation whose group can never
        answer is dropped (a late copy is ``UNEXPECTED``) and returned
        as ``(key, None)``; a requirement is only ever lowered, never
        raised; a payload that already has the lowered number of votes
        is marked delivered (late copies are ``DUPLICATE``) and
        returned as ``(key, payload)`` for the caller to route.
        """
        settled = []
        needs: Dict[Hashable, Optional[float]] = {}  # asked once per group
        for key, pending in list(self._pending.items()):
            group = key[0]
            if group not in needs:
                needs[group] = votes_needed(group)
            need = needs[group]
            if need is None:
                del self._pending[key]
                settled.append((key, None))
            elif need < pending.votes_needed:
                pending.votes_needed = need
                for payload, count in pending.counts.items():
                    if count >= need:
                        self._mark_delivered(key, payload)
                        settled.append((key, payload))
                        break
        return settled

    def forget_where(self, predicate) -> int:
        """Drop pending expectations and delivered-memory whose key
        matches ``predicate``; returns how many entries were removed.

        Used when all state for a client is purged (CLIENT_GONE): a
        later reincarnation of the same identifiers must be re-servable,
        not silently suppressed.
        """
        removed = 0
        for key in [k for k in self._pending if predicate(k)]:
            del self._pending[key]
            removed += 1
        for key in [k for k in self._delivered if predicate(k)]:
            del self._delivered[key]
            removed += 1
        return removed

    # ------------------------------------------------------------------

    def _mark_delivered(self, key: Hashable, payload: bytes) -> None:
        self._pending.pop(key, None)
        self._delivered[key] = payload
        while len(self._delivered) > self._remember:
            self._delivered.popitem(last=False)
