"""Logging-Recovery Mechanisms: message logs, checkpoints, state transfer.

Paper section 2.2: "The Replication Mechanisms, operating in concert
with the Logging-Recovery Mechanisms, provide for strongly consistent
replication ... and for state transfer to new and recovering replicas
for both actively and passively replicated objects."

Each Replication Mechanisms instance keeps one :class:`GroupLog` per
passive group it hosts, primary and backups alike:

* the **invocation log** — every delivered invocation for the group,
  in total order, with its delivery timestamp.  On failover the new
  primary replays the suffix after the checkpoint.
* the **checkpoint** — the newest known state snapshot and the
  timestamp up to which it covers; installing one truncates the log.
  The primary takes one every ``GroupInfo.checkpoint_every`` completed
  operations; state transfers and switches into a passive style
  install one too.

Replaying is deterministic because logged invocations carry their
original timestamps: replayed nested invocations regenerate the *same*
operation identifiers (Figure 6) and are therefore deduplicated at
their targets rather than re-executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .messages import DomainMessage


@dataclass
class Checkpoint:
    state: Dict[str, Any]
    ts: int


class GroupLog:
    """Per-group invocation log plus latest checkpoint.  The owning
    Replication Mechanisms count what they ask of it."""

    def __init__(self, group_id: int) -> None:
        self.group_id = group_id
        self.invocations: List[DomainMessage] = []
        self.checkpoint: Optional[Checkpoint] = None

    def record_invocation(self, message: DomainMessage) -> None:
        """Append a delivered invocation (caller already deduplicated)."""
        self.invocations.append(message)

    def install_checkpoint(self, state: Dict[str, Any], ts: int) -> bool:
        """Adopt a checkpoint at least as new as the current one and
        truncate the covered log prefix; says whether it was adopted.
        An older one — a replayed control message, or an operation that
        completed after a later-ordered one — is refused."""
        if self.checkpoint is not None and ts < self.checkpoint.ts:
            return False
        self.checkpoint = Checkpoint(state=state, ts=ts)
        self.invocations = [m for m in self.invocations if m.timestamp > ts]
        return True

    def replay_after(self, ts: int) -> List[DomainMessage]:
        """Invocations with delivery timestamp strictly greater than ts."""
        return [m for m in self.invocations if m.timestamp > ts]

    def latest_covered_ts(self) -> int:
        """Timestamp below which state is captured by the checkpoint."""
        return self.checkpoint.ts if self.checkpoint is not None else 0

    def __len__(self) -> int:
        return len(self.invocations)
