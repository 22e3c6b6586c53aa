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
orthogonal properties.  The full matrix:

=================== ========= ============ =========== ======== ========== ============ ========
style               executes_ responds_    is_semi_    needs_   has_state  any_copy_    loads_
                    everywhere from_all    active      voting              suffices     backups
=================== ========= ============ =========== ======== ========== ============ ========
STATELESS           yes       yes          no          no       no         yes          no
COLD_PASSIVE        no        no           no          no       yes        no           no
WARM_PASSIVE        no        no           no          no       yes        no           yes
ACTIVE              yes       yes          no          no       yes        yes          no
ACTIVE_WITH_VOTING  yes       yes          no          yes      yes        no           no
LEADER_FOLLOWER     yes       no           yes         no       yes        no           no
=================== ========= ============ =========== ======== ========== ============ ========

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

import dataclasses
import enum


class ReplicationStyle(enum.Enum):
    STATELESS = "stateless"
    COLD_PASSIVE = "cold_passive"
    WARM_PASSIVE = "warm_passive"
    ACTIVE = "active"
    ACTIVE_WITH_VOTING = "active_with_voting"
    LEADER_FOLLOWER = "leader_follower"

    @property
    def is_passive(self) -> bool:
        return self in (ReplicationStyle.COLD_PASSIVE,
                        ReplicationStyle.WARM_PASSIVE)

    @property
    def executes_everywhere(self) -> bool:
        """Every live replica executes every delivered invocation."""
        return self in (ReplicationStyle.ACTIVE,
                        ReplicationStyle.ACTIVE_WITH_VOTING,
                        ReplicationStyle.STATELESS,
                        ReplicationStyle.LEADER_FOLLOWER)

    @property
    def responds_from_all(self) -> bool:
        """Every executing replica multicasts its response."""
        return self in (ReplicationStyle.ACTIVE,
                        ReplicationStyle.ACTIVE_WITH_VOTING,
                        ReplicationStyle.STATELESS)

    @property
    def is_semi_active(self) -> bool:
        """Executes everywhere, but only the leader responds/orders."""
        return self is ReplicationStyle.LEADER_FOLLOWER

    @property
    def needs_voting(self) -> bool:
        return self is ReplicationStyle.ACTIVE_WITH_VOTING

    @property
    def any_copy_suffices(self) -> bool:
        """Every replica sends and the receiver takes the first copy,
        so a still-queued copy is redundant once a sibling's is agreed."""
        return self.responds_from_all and not self.needs_voting

    @property
    def loads_backups(self) -> bool:
        """Passive backups keep their servants at the last checkpoint."""
        return self is ReplicationStyle.WARM_PASSIVE

    @property
    def has_state(self) -> bool:
        return self is not ReplicationStyle.STATELESS


@dataclasses.dataclass(frozen=True)
class StylePolicy:
    """Thresholds driving runtime style adaptation (`StyleManager`).

    A group whose base style is ACTIVE or ACTIVE_WITH_VOTING is demoted
    to ``demote_to`` when the domain looks overloaded — the gateways
    shed more than ``demote_shed_rate`` requests per second over a tick,
    or p50 invocation latency exceeds ``demote_latency_s`` — and
    promoted back to its base style when faults reappear (more than
    ``promote_fault_rate`` detector faults / failovers per second).
    ``min_dwell_s`` rate-limits flapping: after any observed style
    change the manager holds off for at least that long.

    With the time-series registry armed (``World(series=True)``) the
    shed-rate and latency thresholds are applied to each group's own
    windowed ``series.gateway.group.*`` series instead of the global
    scalars; ``min_series_samples`` is how many in-window latency
    observations a group must have before its p50 is trusted (fewer
    reads as healthy — sparse traffic is not overload).
    """

    demote_to: ReplicationStyle = ReplicationStyle.LEADER_FOLLOWER
    demote_shed_rate: float = 1.0
    demote_latency_s: float = 0.25
    promote_fault_rate: float = 0.5
    min_dwell_s: float = 2.0
    min_series_samples: int = 4

    def __post_init__(self) -> None:
        if not self.demote_to.has_state:
            raise ValueError("demote_to must be a stateful style")
        if self.min_dwell_s < 0:
            raise ValueError("min_dwell_s must be >= 0")
        if self.min_series_samples < 1:
            raise ValueError("min_series_samples must be >= 1")
