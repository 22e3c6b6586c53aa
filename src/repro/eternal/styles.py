"""Replication styles supported by the fault tolerance infrastructure.

The paper (section 2) lists the fault tolerance properties a user can
request from the Eternal Replication Manager, including the replication
style: stateless, cold passive, warm passive, active, and active with
voting.  The LLFT line of work adds a sixth, semi-active style —
leader-follower — which this reproduction supports as a third engine
family.  The semantics implemented by the Replication Mechanisms:

============== =================================================================
STATELESS       Every replica executes every invocation; no state is
                checkpointed or transferred (there is none).  Responses are
                deduplicated as for ACTIVE.
COLD_PASSIVE    Only the primary executes.  Backups log delivered invocations;
                every ``checkpoint_interval``-th operation it completes, the
                primary's state is checkpointed on that operation's reply (or
                a CHECKPOINT of its own when there is none).  On failover the
                new primary restores the latest checkpoint and replays the
                logged invocations after it.
WARM_PASSIVE    COLD_PASSIVE with a checkpoint after every operation, which
                backups also load into their servants, so failover restores
                nothing and replays only the (usually empty) log suffix.
ACTIVE          Every replica executes every invocation deterministically
                and queues its response; a replica whose copy is still
                queued when a sibling's is delivered withdraws it, and
                copies that cross on the ring are suppressed at the
                receiver (gateway or invoking group).
ACTIVE_WITH_VOTING
                As ACTIVE, but the receiver delivers a response only once a
                majority of the group's replicas returned byte-identical
                responses, masking value faults of a minority.
LEADER_FOLLOWER
                Semi-active: every replica executes every invocation (hot
                state, instant failover, no periodic state transfer), but
                only the leader — the first live host of the placement —
                multicasts responses and ordering records for its
                non-deterministic choices (nested-call interleaving);
                followers replay the records to stay byte-identical while
                staying silent.  One response per invocation on the ring
                instead of N, and no voting wait.
============== =================================================================

Because ``is_active`` historically conflated "executes everywhere" with
"participates in voting/response logic", the predicate is split into
orthogonal properties.  The full matrix is :class:`ReplicationStyle`'s
member table; each member carries its row as plain attributes:

* ``executes_everywhere`` — every live replica runs the servant for
  every delivered invocation (the ``i_execute`` decision).
* ``responds_from_all`` — every executing replica multicasts its
  response; the receiver deduplicates (and, for voting, counts).
* ``is_semi_active`` — executes everywhere but only the leader speaks;
  followers withhold responses and follow ordering records.
* ``is_passive`` — only the primary executes; backups log.
* ``any_copy_suffices`` — every replica queues the same RESPONSE or
  nested INVOCATION and the receiver wants just one of them, so a
  replica that sees a sibling's copy delivered in total order while its
  own is still in the Totem send queue withdraws it (sender-side
  duplicate suppression).  Voting needs every copy; the passive and
  semi-active styles only ever queue one.
* ``loads_backups`` — a passive backup installs each checkpoint into
  its servant, not only into its log; the primary checkpoints after
  every operation (``GroupInfo.checkpoint_every``).
"""

from __future__ import annotations

import enum


class ReplicationStyle(enum.Enum):
    """A style and its row of the matrix.  Members hash by identity and
    read their predicates as attributes, so the engines' per-message
    style checks and style-keyed tables cost no Python call."""

    #                     value                 executes_ responds_ is_semi_ needs_ has_  loads_
    #                                           everywhere from_all active   voting state backups
    STATELESS =          ("stateless",          True,  True,  False, False, False, False)
    COLD_PASSIVE =       ("cold_passive",       False, False, False, False, True,  False)
    WARM_PASSIVE =       ("warm_passive",       False, False, False, False, True,  True)
    ACTIVE =             ("active",             True,  True,  False, False, True,  False)
    ACTIVE_WITH_VOTING = ("active_with_voting", True,  True,  False, True,  True,  False)
    LEADER_FOLLOWER =    ("leader_follower",    True,  False, True,  False, True,  False)

    executes_everywhere: bool
    responds_from_all: bool
    is_semi_active: bool
    needs_voting: bool
    has_state: bool
    loads_backups: bool
    is_passive: bool
    any_copy_suffices: bool

    def __new__(cls, value: str, *row: bool) -> "ReplicationStyle":
        style = object.__new__(cls)
        style._value_ = value
        (style.executes_everywhere, style.responds_from_all,
         style.is_semi_active, style.needs_voting, style.has_state,
         style.loads_backups) = row
        style.is_passive = not style.executes_everywhere
        # Every replica sends and the receiver takes the first copy, so
        # a still-queued copy is redundant once a sibling's is agreed.
        style.any_copy_suffices = (style.responds_from_all
                                   and not style.needs_voting)
        return style

    __hash__ = object.__hash__
