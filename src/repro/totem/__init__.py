"""Totem-style reliable totally-ordered multicast (paper reference [4]).

Eternal conveys all intra-domain traffic over a group communication
system providing reliable delivery and a single total order; the
paper's identifiers (Figure 6) are built from its message sequence
numbers.  This package implements a faithful simplification of Totem's
single-ring protocol: a token that parks when idle, token-loss
detection, membership gather/commit, retransmission, aru stability.
"""

from .member import Queued, TotemConfig, TotemMember
from .messages import (
    CommitMessage,
    Frame,
    INITIAL_RING,
    JoinMessage,
    RegularMessage,
    RingId,
    Token,
    TokenWanted,
)
from .transport import TotemTransport

__all__ = [
    "CommitMessage",
    "Frame",
    "INITIAL_RING",
    "JoinMessage",
    "Queued",
    "RegularMessage",
    "RingId",
    "Token",
    "TokenWanted",
    "TotemConfig",
    "TotemMember",
    "TotemTransport",
]
