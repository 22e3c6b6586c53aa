"""Wire messages of the Totem-style single-ring protocol.

Five datagram kinds circulate among ring members:

* :class:`Frame` — :class:`RegularMessage` s of one token visit, the
  only form sequenced traffic travels in: one message at the default
  flow-control quota, more where the quota is raised
  (docs/PROTOCOL.md section 5.2).  A ``RegularMessage`` is
  an application payload stamped with a ring identity and a
  totally-ordered sequence number.  These sequence numbers are the
  "message timestamps" of the paper's Figure 6: Eternal derives
  invocation/response identifier timestamps from them.
* :class:`Token` — the circulating token: sequencing authority,
  all-received-up-to (aru) stability tracking, retransmission
  requests, and the idle-visit count that parks it on a quiet ring.
* :class:`TokenWanted` — asks the member the idle token is parked at.
* :class:`JoinMessage` — membership gathering after token loss or a
  joining processor.
* :class:`CommitMessage` — installs a new ring (membership change).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Sequence, Set, Tuple

# A ring is identified by (generation counter, leader name): the leader
# component keeps concurrently formed rings (during a partition) distinct.
RingId = Tuple[int, str]

INITIAL_RING: RingId = (0, "")


@dataclass
class RegularMessage:
    """A totally-ordered multicast payload."""

    ring_id: RingId
    seq: int
    sender: str
    payload: Any
    size_hint: int = 64


@dataclass
class Frame:
    """One datagram of what a token visit retransmitted and sequenced,
    lowest ``seq`` first (docs/PROTOCOL.md section 5.2).  Bounded by a
    message count derived from the flow-control quota, not by bytes;
    its wire size is the sum of its messages' sizes."""

    messages: Sequence[RegularMessage]


@dataclass
class Token:
    """The rotating token of the single-ring protocol.

    ``seq`` is the highest sequence number assigned on this ring.
    ``aru`` trails ``seq``: it is the minimum received-up-to observed
    over the previous full rotation, so every message with
    ``seq <= aru`` is stable (received everywhere) and can be garbage
    collected from retransmission stores.  ``idle`` counts consecutive
    visits with nothing sequenced, retransmitted or missing; the member
    at which it reaches the ring size parks the token.
    """

    ring_id: RingId
    seq: int
    aru: int
    aru_candidate: int
    rtr: Set[int] = field(default_factory=set)
    idle: int = 0


@dataclass
class TokenWanted:
    """``sender`` asks the member the idle token is parked at for it."""

    sender: str
    ring_id: RingId


@dataclass
class JoinMessage:
    """Broadcast while gathering a new membership."""

    sender: str
    ring_id: RingId
    candidates: FrozenSet[str]
    max_seq: int


@dataclass
class CommitMessage:
    """Installs a new ring: membership, identity, starting sequence."""

    ring_id: RingId
    members: Tuple[str, ...]
    start_seq: int
    leader: str
