"""The replicated group directory.

Every Replication Mechanisms instance keeps a :class:`GroupRegistry`.
The registry is mutated **only** by control messages delivered through
the totally-ordered multicast, so at any logical point in the total
order every processor holds an identical directory — which is what
makes decentralised, deterministic decisions (primary election, state
transfer donor selection, resource-manager replacement placement)
consistent without further agreement.

All mutations are idempotent: replicated managers execute the same
operation at every replica and each emits the same control message, so
any mutation may arrive several times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .styles import ReplicationStyle


@dataclass
class GroupInfo:
    """Directory entry for one replicated object group."""

    group_id: int
    name: str
    interface_name: str
    factory_name: str
    style: ReplicationStyle
    placement: Tuple[str, ...]      # host names, creation order preserved
    min_replicas: int = 1
    initial_replicas: int = 0
    version: int = 1
    checkpoint_interval: int = 10   # ops between cold-passive checkpoints
    style_epoch: int = 0            # bumped by each runtime style switch

    @property
    def checkpoint_every(self) -> int:
        """Completed operations per checkpoint at a passive primary:
        every one where backups keep their servants loaded."""
        return 1 if self.style.loads_backups else self.checkpoint_interval

    def primary(self, live_hosts: Sequence[str]) -> Optional[str]:
        """Deterministic primary: first placement host that is live."""
        for host in self.placement:
            if host in live_hosts:
                return host
        return None

    def live_replicas(self, live_hosts: Sequence[str]) -> List[str]:
        return [h for h in self.placement if h in live_hosts]


class GroupRegistry:
    """Identical-everywhere directory of group directory entries."""

    def __init__(self) -> None:
        self._groups: Dict[int, GroupInfo] = {}
        self._by_name: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get(self, group_id: int) -> Optional[GroupInfo]:
        return self._groups.get(group_id)

    def require(self, group_id: int) -> GroupInfo:
        info = self._groups.get(group_id)
        if info is None:
            raise ConfigurationError(f"unknown group id {group_id}")
        return info

    def by_name(self, name: str) -> Optional[GroupInfo]:
        group_id = self._by_name.get(name)
        return self._groups.get(group_id) if group_id is not None else None

    def all_groups(self) -> List[GroupInfo]:
        return [self._groups[g] for g in sorted(self._groups)]

    def groups_on(self, host_name: str) -> List[GroupInfo]:
        return [info for info in self.all_groups() if host_name in info.placement]

    def __contains__(self, group_id: int) -> bool:
        return group_id in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    # ------------------------------------------------------------------
    # Idempotent mutations (driven by delivered control messages)
    # ------------------------------------------------------------------

    def announce(self, info: GroupInfo) -> bool:
        """Create or overwrite a directory entry.  Returns True if new."""
        existed = info.group_id in self._groups
        old = self._groups.get(info.group_id)
        if old is not None and old.name != info.name:
            self._by_name.pop(old.name, None)
        self._groups[info.group_id] = info
        self._by_name[info.name] = info.group_id
        return not existed

    def remove(self, group_id: int) -> Optional[GroupInfo]:
        info = self._groups.pop(group_id, None)
        if info is not None:
            self._by_name.pop(info.name, None)
        return info

    def add_replica(self, group_id: int, host_name: str) -> bool:
        """Extend a group's placement.  Returns True if actually added."""
        info = self._groups.get(group_id)
        if info is None or host_name in info.placement:
            return False
        self._groups[group_id] = replace(
            info, placement=info.placement + (host_name,))
        return True

    def remove_replica(self, group_id: int, host_name: str) -> bool:
        info = self._groups.get(group_id)
        if info is None or host_name not in info.placement:
            return False
        self._groups[group_id] = replace(
            info, placement=tuple(h for h in info.placement if h != host_name))
        return True

    def set_style(self, group_id: int, style: ReplicationStyle,
                  epoch: int) -> bool:
        """Apply a runtime style switch.  Returns True if it took effect.

        Epoch-guarded so redundant STYLE_SWITCH multicasts (replicated
        managers each emit one) apply exactly once: only an epoch
        strictly beyond the entry's current one mutates the entry.
        """
        info = self._groups.get(group_id)
        if info is None or epoch <= info.style_epoch:
            return False
        self._groups[group_id] = replace(info, style=style, style_epoch=epoch)
        return True

    def bump_version(self, group_id: int, factory_name: str) -> None:
        info = self._groups.get(group_id)
        if info is None:
            return
        self._groups[group_id] = replace(
            info, version=info.version + 1, factory_name=factory_name)

    def prune_dead_hosts(self, live_hosts: Sequence[str]) -> List[Tuple[int, str]]:
        """Drop placements on dead hosts.  Returns (group, host) removed.

        Called identically on every processor at a membership change, so
        all registries evolve in lock-step.
        """
        removed: List[Tuple[int, str]] = []
        live = set(live_hosts)
        for group_id, info in list(self._groups.items()):
            dead = [h for h in info.placement if h not in live]
            for host in dead:
                self.remove_replica(group_id, host)
                removed.append((group_id, host))
        return removed
