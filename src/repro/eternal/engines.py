"""Replication engines: what a replication style family decides.

The Replication Mechanisms (:mod:`.replication`) keep what every style
shares — total order, duplicate detection, copy withdrawal, the
registry, state transfer and membership — and ask the group's engine
every question whose answer depends on the style: who executes and who
only logs, who responds and what a silent replica keeps, what an
execution owes the backups, what becoming primary means, and the
nested-order check.

An engine holds no table: what its family keeps for a replica is a
field of the replica's :class:`~.replication.ReplicaRecord`, so it goes
with the replica and stays across a switch between two engines that
keep it (the passive styles' log).

A live style switch is one hand-over at its cut: the old engine's
:meth:`~ExecuteEverywhere.export`, then the new one's
:meth:`~ExecuteEverywhere.adopt`.  A state transfer ends in the same
adopt, at the cut of the ADD_REPLICA that made the joiner.

:data:`ENGINES` picks each style's family.  What varies within a family
— voting, copy withdrawal, loaded backups — the engine reads from its
style's row in :mod:`.styles`, the one place those facts are written.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..iiop.giop import RequestMessage
from .messages import DomainMessage, MsgKind
from .registry import GroupInfo
from .styles import ReplicationStyle

if TYPE_CHECKING:
    from .execution import Execution
    from .replication import ReplicaRecord, ReplicationMechanisms


class ExecuteEverywhere:
    """STATELESS, ACTIVE and ACTIVE_WITH_VOTING: every replica executes
    every invocation and multicasts its reply.  The receiver takes the
    first copy, so a replica withdraws its own still-queued copy once a
    sibling's is delivered — unless the style votes, when it delivers a
    reply once a majority of the live replicas sent identical ones, so
    every copy counts.  The other families override what they decide
    otherwise."""

    def __init__(self, rm: "ReplicationMechanisms",
                 style: ReplicationStyle) -> None:
        self.rm = rm
        self.style = style
        # Read per message, so copied from the style's row as plain
        # attributes.
        self.voting = style.needs_voting
        self.withdraws_copies = style.any_copy_suffices

    def _leads(self, info: GroupInfo) -> bool:
        """Is this processor the group's primary (its leader)?  The
        per-message methods inline it: one call fewer per delivery."""
        rm = self.rm
        return info.primary(rm.live_hosts) == rm.host.name

    def deliver(self, msg: DomainMessage, record: "ReplicaRecord",
                info: GroupInfo, request: RequestMessage, key: tuple) -> None:
        """A new invocation is delivered here: execute it, or only log it."""
        self.rm._execute(msg, record, info, request, key)

    def responds(self, info: GroupInfo) -> bool:
        """Does this replica multicast the replies it computes?"""
        return True

    def completed(self, execution: "Execution", original: DomainMessage,
                  info: GroupInfo, key: tuple, reply: bytes) -> None:
        """``original`` finished here with ``reply`` (already cached)."""
        if execution.request.response_expected and not execution.silent:
            self.rm._respond(original, reply)

    def sends_nested(self, execution: "Execution", info: GroupInfo) -> bool:
        """Does this replica multicast the nested invocation it derived?"""
        return True

    def check_order(self, msg: DomainMessage, info: GroupInfo) -> None:
        """A nested INVOCATION from this group, hosted here, delivered."""

    def apply_checkpoint(self, msg: DomainMessage, info: GroupInfo,
                         record: "ReplicaRecord") -> None:
        """A passive primary's checkpoint for this group.  Executing
        replicas ignore one sequenced behind a switch out of the passive
        styles: the switch's catch-up covered its operation."""

    def promote(self, info: GroupInfo, record: "ReplicaRecord") -> None:
        """This replica just became the group's primary / leader."""

    def export(self, info: GroupInfo, record: "ReplicaRecord",
               successor: "ExecuteEverywhere") -> int:
        """Hand the replica over to ``successor`` at a switch's cut: bring
        it to its state as of the cut, unless the successor keeps this
        engine's log, and drop this family's bookkeeping; returns the
        operations replayed."""
        return 0

    def adopt(self, info: GroupInfo, record: "ReplicaRecord",
              cut_ts: int) -> None:
        """Take over a replica at ``cut_ts``, a switch's cut or a state
        transfer's: its servant holds its state as of the cut, or (from
        the other passive style) its log does."""

    def _promoted(self, info: GroupInfo, replayed: int = 0,
                  resent: int = 0, reissued: int = 0) -> None:
        fl = self.rm.flight
        if fl.enabled:
            fl.record("flight.promotion", rm=self.rm.name,
                      group=info.group_id, style=info.style.value,
                      replayed=replayed, resent=resent, reissued=reissued)


class Passive(ExecuteEverywhere):
    """COLD_PASSIVE and WARM_PASSIVE, with the Logging-Recovery
    Mechanisms (paper section 2.2): only the primary executes; every
    replica logs each delivered invocation on its record
    (``ReplicaRecord.log``).  Every ``GroupInfo.checkpoint_every``-th
    completed operation the primary's state rides that operation's reply
    (or a CHECKPOINT of its own when there is none) into every record's
    ``checkpoint``, which truncates the log it covers; a new primary
    restores the checkpoint and replays the log.  Where the style loads
    backups (WARM_PASSIVE: a checkpoint after every operation), each
    backup also installs each checkpoint into its servant, so promotion
    restores nothing.  A replayed invocation keeps its timestamp, so its
    nested calls regenerate the *same* operation identifiers (Figure 6)
    and their targets answer them from their dedup tables."""

    def _checkpoint(self, record: "ReplicaRecord", state: Dict,
                    ts: int) -> None:
        """Adopt a checkpoint at least as new as the record's, dropping
        the log prefix it covers (or starting the log).  An older one —
        a replayed control message, or an operation that completed after
        a later-ordered one — is refused."""
        if record.checkpoint is not None and ts < record.checkpoint[1]:
            return
        record.checkpoint = (state, ts)
        record.log = [m for m in record.log or () if m.timestamp > ts]
        self.rm.stats["checkpoint_installs"] += 1

    def deliver(self, msg: DomainMessage, record: "ReplicaRecord",
                info: GroupInfo, request: RequestMessage, key: tuple) -> None:
        rm = self.rm
        if record.log is None:
            record.log = [msg]
        else:
            record.log.append(msg)
        rm.stats["log_appends"] += 1
        if info.primary(rm.live_hosts) == rm.host.name:
            rm._execute(msg, record, info, request, key)

    def responds(self, info: GroupInfo) -> bool:
        return self._leads(info)

    def completed(self, execution: "Execution", original: DomainMessage,
                  info: GroupInfo, key: tuple, reply: bytes) -> None:
        rm = self.rm
        if info.primary(rm.live_hosts) != rm.host.name:
            # A backup completes only what it began before a switch into
            # a passive style (an execution or a catch-up replay): the
            # primary answers it and owes the checkpoint.
            return
        owed: Optional[Dict] = None
        record = rm.replicas.get(info.group_id)
        if record is not None:
            record.since_checkpoint += 1
            if record.since_checkpoint >= info.checkpoint_every:
                record.since_checkpoint = 0
                rm.stats["checkpoints"] += 1
                owed = {"state": record.servant.get_state(),
                        "upto_ts": original.timestamp}
        if execution.request.response_expected and not execution.silent:
            rm._respond(original, reply, owed)
        elif owed:
            # No reply to ride on (a one-way operation): the checkpoint
            # goes by itself.
            rm.stats["state_updates"] += 1
            group = info.group_id
            rm.multicast(DomainMessage(
                MsgKind.CHECKPOINT, group, group, data=owed))

    def apply_checkpoint(self, msg: DomainMessage, info: GroupInfo,
                         record: "ReplicaRecord") -> None:
        """Every replica logs it, the primary included; a loaded backup
        also sets its servant, even when the record refuses the
        checkpoint as older — an operation completing out of order
        carries the newest state."""
        state = msg.data["state"]
        rm = self.rm
        if (self.style.loads_backups
                and info.primary(rm.live_hosts) != rm.host.name):
            record.servant.set_state(state)
        self._checkpoint(record, state, msg.data["upto_ts"])

    def promote(self, info: GroupInfo, record: "ReplicaRecord") -> None:
        """Restore the state, replay the log audibly: the dead
        primary's responses may be lost."""
        rm = self.rm
        rm.stats["failovers"] += 1
        replayed = self._replay(info, record, silent=False)
        rm.stats["replays"] += replayed
        self._promoted(info, replayed=replayed)

    def export(self, info: GroupInfo, record: "ReplicaRecord",
               successor: ExecuteEverywhere) -> int:
        """Into the other passive style the log carries over untouched:
        an operation still suspended at the cut completes under the
        successor, and the log's suffix still holds it.  Otherwise a
        backup replays its log suffix silently (the old primary served
        those operations) and the log goes: executing styles keep hot
        state instead."""
        if isinstance(successor, Passive):
            return 0
        replayed = 0
        if not self._leads(info):
            replayed = self._replay(info, record, silent=True)
            self.rm.stats["catchup_replays"] += replayed
        record.log = record.checkpoint = None
        return replayed

    def adopt(self, info: GroupInfo, record: "ReplicaRecord",
              cut_ts: int) -> None:
        """Seed the log with the servant's state as a checkpoint at the
        cut: backups log and replay from there.  A log kept from the
        other passive style stays as it is; where this style loads
        backups, a backup loads its checkpoint, as promotion here
        restores nothing."""
        if record.log is None:
            self._checkpoint(record, record.servant.get_state(), cut_ts)
        elif (self.style.loads_backups and record.checkpoint is not None
                and not self._leads(info)):
            record.servant.set_state(record.checkpoint[0])

    def _replay(self, info: GroupInfo, record: "ReplicaRecord",
                silent: bool) -> int:
        """Restore the checkpoint — unless the servant loaded each one as
        it came and may be newer, as the record refuses a later
        checkpoint with a lower ``upto_ts`` — and execute the log again;
        returns how many.  Silently in a switch's catch-up: nested calls
        are still multicast to solicit their targets' cached responses;
        terminal responses are not, the old primary served them."""
        if record.checkpoint is not None and not self.style.loads_backups:
            record.servant.set_state(record.checkpoint[0])
        if record.log is None:
            record.log = []
        rm = self.rm
        seen = rm._invocations_seen[info.group_id]
        logged = list(record.log)
        for msg in logged:
            key = (msg.source_group, msg.client_id, msg.op_id)
            seen.put(key, "executing")
            rm._execute(msg, record, info, msg.request(), key, silent=silent)
        return len(logged)


class SemiActive(ExecuteEverywhere):
    """LEADER_FOLLOWER: every replica executes (hot state, no state
    transfer at failover) but only the leader — the primary — multicasts
    replies and nested invocations.  A follower caches each reply and
    withholds it until the leader's is delivered in total order."""

    def responds(self, info: GroupInfo) -> bool:
        return self._leads(info)

    def completed(self, execution: "Execution", original: DomainMessage,
                  info: GroupInfo, key: tuple, reply: bytes) -> None:
        if not execution.request.response_expected or execution.silent:
            return
        rm = self.rm
        if info.primary(rm.live_hosts) == rm.host.name:
            rm._respond(original, reply)
            return
        # Withheld until the leader's response is delivered, so a promoted
        # survivor can resend every reply the dead leader never delivered.
        record = rm.replicas.get(info.group_id)
        if record is not None:
            record.withheld[key] = original
        rm.stats["responses_withheld"] += 1

    def sends_nested(self, execution: "Execution", info: GroupInfo) -> bool:
        """Only the leader puts a nested invocation on the ring; followers
        register the same expectation and resume on the ordered reply.
        A catch-up replay still sends: the cached reply it needs lives in
        the target's dedup table and has to be solicited again."""
        rm = self.rm
        return (execution.silent
                or info.primary(rm.live_hosts) == rm.host.name)

    def check_order(self, msg: DomainMessage, info: GroupInfo) -> None:
        """Followers derived the same child operation id when they
        executed the parent (total order + deterministic Figure 6
        counters); the leader's nested INVOCATION makes that a checked
        property.  A mismatch would mean replica divergence — counted
        (``rm.style.order.mismatch``, asserted zero by the test suite).
        Any copy from the group counts: one a replica queued under ACTIVE
        and sequenced after a live switch to this style is held to the
        same wait, at its sender too."""
        rm = self.rm
        if not rm.replicas[msg.source_group].ready:
            return  # joining replica: it never executed the parent
        if info.primary(rm.live_hosts) == rm.host.name:
            return  # the leader checking its own message is vacuous
        if not msg.request().response_expected:
            return  # one-way: nobody waits, so there is nothing to compare
        wait_key = (msg.target_group, msg.source_group, msg.op_id)
        if (rm._response_filter.is_expected(wait_key)
                or rm._response_filter.was_delivered(wait_key)):
            rm.stats["orders_followed"] += 1
        else:
            rm.stats["order_mismatches"] += 1

    def promote(self, info: GroupInfo, record: "ReplicaRecord") -> None:
        """The new leader's state is already hot, so promotion is
        re-transmission, not recovery: resend the withheld replies the
        dead leader never got onto the ring, and re-issue still-suspended
        nested invocations it may have crashed before multicasting.
        Over-sending is safe (targets and receivers deduplicate)."""
        rm = self.rm
        rm.stats["failovers"] += 1
        rm.stats["promotions"] += 1
        seen = rm._invocations_seen.get(info.group_id, {})
        resent = 0
        for key, original in list(record.withheld.items()):
            reply = seen.get(key)
            if type(reply) is bytes:
                rm.stats["responses_resent"] += 1
                rm._respond(original, reply)
                resent += 1
        # The resends retire their own entries when they come back
        # around in total order (_on_response pops them).
        reissued = 0
        for wait_key, waiter in rm._response_filter.waiters():
            if wait_key[1] == info.group_id and waiter.message is not None:
                rm.multicast(waiter.message)
                reissued += 1
        self._promoted(info, resent=resent, reissued=reissued)


#: Style -> engine family; each processor builds one engine per style.
ENGINES = {
    ReplicationStyle.STATELESS: ExecuteEverywhere,
    ReplicationStyle.ACTIVE: ExecuteEverywhere,
    ReplicationStyle.ACTIVE_WITH_VOTING: ExecuteEverywhere,
    ReplicationStyle.COLD_PASSIVE: Passive,
    ReplicationStyle.WARM_PASSIVE: Passive,
    ReplicationStyle.LEADER_FOLLOWER: SemiActive,
}
