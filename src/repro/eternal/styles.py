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
                multicasts responses and nested invocations; followers
                derive the same nested operation ids, check them against
                the leader's, and stay silent.  One response per
                invocation on the ring instead of N, and no voting wait.
============== =================================================================

Each family is one engine in :mod:`.engines`, chosen by the table
:data:`~repro.eternal.engines.ENGINES`:

* execute-everywhere — STATELESS, ACTIVE and ACTIVE_WITH_VOTING
  (``ExecuteEverywhere``);
* passive — COLD_PASSIVE and WARM_PASSIVE (``Passive``);
* semi-active — LEADER_FOLLOWER (``SemiActive``).

The Replication Mechanisms branch on no style: they ask the group's
engine, which reads what varies within its family from its style's row.
The rows are :class:`ReplicationStyle`'s member table; each member
carries its row as plain attributes:

* ``needs_voting`` — the receiver delivers a response once a majority
  of the live replicas sent identical ones.
* ``has_state`` — the servant holds state (a live style switch is
  defined between stateful styles only).
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
    """A style and its row.  Members hash by identity and read their
    row as attributes, so the style-keyed tables (``ENGINES``) and the
    engines' reads of their row cost no Python call."""

    #                     value                 needs_ has_  loads_  any_copy_
    #                                           voting state backups suffices
    STATELESS =          ("stateless",          False, False, False, True)
    COLD_PASSIVE =       ("cold_passive",       False, True,  False, False)
    WARM_PASSIVE =       ("warm_passive",       False, True,  True,  False)
    ACTIVE =             ("active",             False, True,  False, True)
    ACTIVE_WITH_VOTING = ("active_with_voting", True,  True,  False, False)
    LEADER_FOLLOWER =    ("leader_follower",    False, True,  False, False)

    needs_voting: bool
    has_state: bool
    loads_backups: bool
    any_copy_suffices: bool

    def __new__(cls, value: str, *row: bool) -> "ReplicationStyle":
        style = object.__new__(cls)
        style._value_ = value
        (style.needs_voting, style.has_state, style.loads_backups,
         style.any_copy_suffices) = row
        return style

    __hash__ = object.__hash__
