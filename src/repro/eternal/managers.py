"""The Eternal Replication, Resource, and Evolution Managers (Figure 2).

*Replication Manager* — "replicates each application object, according
to user-specified fault tolerance properties ... and distributes the
replicas across the system."  Implemented as a genuine replicated CORBA
object group (the paper notes the managers are themselves CORBA objects
that benefit from Eternal's fault tolerance): every replica executes
each operation deterministically and emits the same idempotent
GROUP_ANNOUNCE or STYLE_SWITCH, so duplicate emission is harmless.  It
is the one management path: the domain driver's ``create_group`` and
``switch_style`` and the Evolution Manager invoke it like any group.

*Resource Manager* — "monitors the system resources, and maintains the
initial and minimum number of replicas."  Implemented as a per-host
infrastructure component: after every membership change and every
delivery that changes the directory, each host deterministically
computes the same replacement placements from the shared registry and
multicasts idempotent ADD_REPLICA messages.

*Evolution Manager* — "exploits object replication to support upgrades
to the CORBA application objects."  Implemented as a rolling-upgrade
driver: the Replication Manager's ``upgrade_object`` bumps the group's
factory/version in the registry, then the driver replaces
replicas one host at a time, waiting for each new replica's
REPLICA_READY before touching the next (state transfer keeps the group
available throughout).
"""

from __future__ import annotations

import json
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from dataclasses import dataclass, field, replace as dc_replace

from ..errors import ConfigurationError, InvocationFailure
from ..iiop.types import TC_LONG, TC_STRING, TC_VOID, SequenceTC
from ..orb.idl import Interface, Operation, Param
from ..orb.servant import Servant
from ..sim.world import Promise
from ..totem.member import Queued
from .messages import DomainMessage, MsgKind
from .naming import FIRST_APPLICATION_GROUP, REPLICATION_MANAGER_GROUP
from .registry import GroupInfo
from .styles import ReplicationStyle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .domain import FaultToleranceDomain
    from .replication import ReplicationMechanisms


REPLICATION_MANAGER_INTERFACE = Interface("EternalReplicationManager", [
    Operation("create_object", [
        Param("name", TC_STRING),
        Param("interface_name", TC_STRING),
        Param("factory_name", TC_STRING),
        Param("style", TC_STRING),
        Param("num_replicas", TC_LONG),
        Param("min_replicas", TC_LONG),
        Param("checkpoint_interval", TC_LONG),
        # Host names, or empty for the manager's own placement.
        Param("placement", SequenceTC(TC_STRING)),
    ], TC_STRING),                        # returns the published IOR string
    Operation("remove_object", [Param("name", TC_STRING)], TC_VOID),
    Operation("get_properties", [Param("name", TC_STRING)], TC_STRING),
    Operation("switch_style", [Param("name", TC_STRING),
                               Param("style", TC_STRING)], TC_VOID),
    Operation("upgrade_object", [Param("name", TC_STRING),
                                 Param("factory_name", TC_STRING)], TC_LONG),
])


#: The fewest replicas a style is meaningful with: a majority needs
#: three voters, and a leader needs a follower.
_MIN_PLACED = {ReplicationStyle.ACTIVE_WITH_VOTING: 3,
               ReplicationStyle.LEADER_FOLLOWER: 2}


def _bad_property(reason: str) -> InvocationFailure:
    return InvocationFailure("IDL:repro/BadProperty:1.0", reason)


def _style(style: str) -> ReplicationStyle:
    try:
        return ReplicationStyle(style)
    except ValueError:
        raise _bad_property(f"unknown replication style {style!r}")


class ReplicationManagerServant(Servant):
    """Replicated manager servant; one replica per manager host.

    All decisions (group id, placement, style epoch) are derived from
    the registry and membership of the *local* Replication Mechanisms at
    the point in the total order where the invocation is executed —
    identical on every replica — so all replicas multicast one message.
    The one exception is the servant's own state, ``style_epochs``: the
    last epoch issued per group, so a switch issued before the previous
    one's STYLE_SWITCH is delivered still gets an epoch of its own.
    """

    interface = REPLICATION_MANAGER_INTERFACE

    def __init__(self, rm: "ReplicationMechanisms",
                 ior_builder: Callable[[int, str], str],
                 replica_hosts: Sequence[str]) -> None:
        self._rm = rm
        self._ior_builder = ior_builder
        self._replica_hosts = replica_hosts
        self.style_epochs: Dict[int, int] = {}

    # -- operations -------------------------------------------------------

    def create_object(self, name: str, interface_name: str,
                      factory_name: str, style: str, num_replicas: int,
                      min_replicas: int, checkpoint_interval: int,
                      placement: Sequence[str]) -> str:
        """Create a group (or return the IOR of the one so named): its id
        above every id ever announced, its replicas on the named hosts
        that are live, else on the live replica hosts from ``id % live``.
        A property the group cannot hold raises ``BadProperty``."""
        registry = self._rm.registry
        existing = registry.by_name(name)
        if existing is not None:
            return self._ior_builder(existing.group_id,
                                     existing.interface_name)
        chosen_style = _style(style)
        if not placement and num_replicas < 1:
            raise _bad_property(f"num_replicas {num_replicas} < 1")
        if min_replicas > num_replicas:
            raise _bad_property(f"min_replicas {min_replicas} exceeds "
                                f"num_replicas {num_replicas}")
        if checkpoint_interval < 1:
            raise _bad_property(
                f"checkpoint_interval {checkpoint_interval} < 1")
        group_id = max(registry.high_water + 1, FIRST_APPLICATION_GROUP)
        live = [h for h in (placement or self._replica_hosts)
                if h in self._rm.live_hosts]
        if not live:
            raise _bad_property(f"no live host to place {name!r} on")
        if not placement:
            offset = group_id % len(live)
            live = (live[offset:] + live[:offset])[:num_replicas]
        fewest = _MIN_PLACED.get(chosen_style, 1)
        if len(live) < fewest:
            raise _bad_property(f"{chosen_style.value} needs {fewest} "
                                f"replicas, {name!r} would have {len(live)}")
        # A copy per replica, withdrawn like a reply's once one is delivered.
        self._rm._multicast_copy(DomainMessage(
            kind=MsgKind.GROUP_ANNOUNCE,
            source_group=REPLICATION_MANAGER_GROUP, target_group=group_id,
            data={"info": GroupInfo(
                group_id=group_id, name=name, interface_name=interface_name,
                factory_name=factory_name, style=chosen_style,
                placement=tuple(live), min_replicas=min_replicas,
                initial_replicas=num_replicas,
                checkpoint_interval=checkpoint_interval)}))
        return self._ior_builder(group_id, interface_name)

    def remove_object(self, name: str) -> None:
        info = self._require(name)
        self.style_epochs.pop(info.group_id, None)
        self._rm.multicast(DomainMessage(
            kind=MsgKind.GROUP_REMOVE, source_group=0, target_group=0,
            data={"group_id": info.group_id}))

    def get_properties(self, name: str) -> str:
        info = self._require(name)
        return json.dumps({
            "group_id": info.group_id,
            "style": info.style.value,
            "placement": list(info.placement),
            "min_replicas": info.min_replicas,
            "version": info.version,
        }, sort_keys=True)

    def switch_style(self, name: str, style: str) -> None:
        """The switch has taken effect wherever the reply is delivered."""
        info = self._require(name)
        new_style = _style(style)
        if not info.style.has_state or not new_style.has_state:
            raise _bad_property(
                "live style switching is defined between stateful styles "
                f"only ({info.style.value} -> {new_style.value})")
        epoch = max(info.style_epoch,
                    self.style_epochs.get(info.group_id, 0)) + 1
        self.style_epochs[info.group_id] = epoch
        self._rm.multicast(DomainMessage(
            kind=MsgKind.STYLE_SWITCH, source_group=0, target_group=0,
            data={"group_id": info.group_id, "style": new_style.value,
                  "epoch": epoch}))

    def upgrade_object(self, name: str, factory_name: str) -> int:
        """Move a group to a new factory; returns its new version."""
        info = self._require(name)
        upgraded = dc_replace(info, version=info.version + 1,
                              factory_name=factory_name)
        self._rm.multicast(DomainMessage(
            kind=MsgKind.GROUP_ANNOUNCE, source_group=0, target_group=0,
            data={"info": upgraded}))
        return upgraded.version

    # -- helpers ----------------------------------------------------------

    def _require(self, name: str) -> GroupInfo:
        info = self._rm.registry.by_name(name)
        if info is None:
            raise InvocationFailure("IDL:repro/NoSuchObject:1.0", name)
        return info


class ResourceManager:
    """Per-host replica-count maintenance (idempotent, leaderless)."""

    def __init__(self, rm: "ReplicationMechanisms",
                 replica_hosts: Sequence[str]) -> None:
        self.rm = rm
        self.replica_hosts = replica_hosts
        # (group id, host) of the ADD_REPLICAs asked here and not yet
        # delivered, counted as placed: a re-check in between would
        # otherwise ask again, for another host once loads moved.
        self._asked: Dict[Tuple[int, str], None] = {}
        rm.on_membership_change(lambda live: self._maintain())
        rm.on_directory_change(self._on_directory_change)

    def _on_directory_change(self, msg: DomainMessage) -> None:
        if msg.kind is MsgKind.ADD_REPLICA:
            self._asked.pop((msg.data["group_id"], msg.data["host"]), None)
        self._maintain()

    def _maintain(self) -> None:
        """Request replacements for groups below their minimum.

        Every host computes the same candidate from the same registry,
        membership and asked-for replicas, so the redundant ADD_REPLICA
        multicasts are identical and idempotent at every receiver.
        """
        live = set(self.rm.live_hosts)
        for info in self.rm.registry.all_groups():
            if info.factory_name == "":
                continue  # infrastructure pseudo-groups (gateways)
            placed = [h for h in info.placement if h in live] + [
                h for g, h in self._asked if g == info.group_id and h in live]
            needed = max(info.min_replicas, 0) - len(placed)
            if needed <= 0:
                continue
            for host in self._candidates(placed, live)[:needed]:
                self._asked[(info.group_id, host)] = None
                self.rm.multicast(DomainMessage(
                    kind=MsgKind.ADD_REPLICA, source_group=0, target_group=0,
                    data={"group_id": info.group_id, "host": host}))

    def _candidates(self, placed: List[str], live: set) -> List[str]:
        load: Dict[str, int] = {}
        for host in self.replica_hosts:
            if host in live and host not in placed:
                load[host] = 0
        for other in self.rm.registry.all_groups():
            for host in other.placement:
                if host in load:
                    load[host] += 1
        return sorted(load, key=lambda h: (load[h], h))


class EvolutionManager:
    """Rolling live-upgrade driver (one replica at a time).

    Each step — one ADD_REPLICA that replaces one host's replica, its
    removal and re-creation applied in one delivery — is multicast from
    whichever processor is coordinator then, and every processor's
    REPLICA_READY deliveries reach :meth:`on_ready` (the domain wires
    both hooks).  Who is live is the coordinator's view: at each of its
    membership changes (:meth:`on_membership`) a host being replaced
    that left is skipped, and a step still in a departed issuer's send
    queue is issued again, the rule the domain's driver calls follow.
    A joiner whose donor died gets its state from the group's next
    primary, as any joiner does.
    """

    def __init__(self, domain: "FaultToleranceDomain") -> None:
        self.domain = domain
        # Group name -> its roll in progress.
        self._rolls: Dict[str, _Roll] = {}
        domain.world.audit_scope.register(
            "evolution.rolls", lambda: len(self._rolls),
            owner=f"domain/{domain.name}")

    def upgrade_group(self, group_name: str,
                      new_factory_name: str) -> Promise:
        """Upgrade every replica of ``group_name`` to ``new_factory_name``:
        the Replication Manager's ``upgrade_object`` moves the group to
        the new factory, then its replicas are replaced one at a time.

        Returns a promise resolved with the new version number once all
        replicas run the new factory's code; rejected with
        :class:`ConfigurationError` while the group's previous upgrade is
        still rolling.
        """
        promise = Promise()
        if group_name in self._rolls:
            promise.reject(ConfigurationError(
                f"group {group_name!r} is already being upgraded"))
            return promise
        roll = self._rolls[group_name] = _Roll(group_name, promise)

        def start(upgraded: Promise) -> None:
            if upgraded.failed:
                self._finish(roll, upgraded.error)
                return
            info = self.domain.coordinator_rm().registry.by_name(group_name)
            roll.group_id, roll.version = info.group_id, upgraded.value
            roll.remaining = list(info.placement)
            self._advance(roll)

        self.domain.invoke(self.domain.manager, "upgrade_object",
                           [group_name, new_factory_name]).on_done(start)
        return promise

    def on_ready(self, group_id: int, host: str, version: int) -> None:
        for roll in list(self._rolls.values()):
            if (roll.group_id == group_id and host == roll.current
                    and version >= roll.version):
                self._advance(roll)

    def on_membership(self, rm: "ReplicationMechanisms") -> None:
        """The coordinator ``rm`` installed a membership."""
        for roll in list(self._rolls.values()):
            if roll.current and roll.current not in rm.live_hosts:
                self._advance(roll)
            elif (roll.add is not None and roll.add.queued
                  and self.domain.departed(roll.issuer, rm)):
                self._issue(roll)

    def _advance(self, roll: "_Roll") -> None:
        """Replace the next host still in the group's placement (so still
        live); resolve when none is left."""
        info = self.domain.coordinator_rm().registry.get(roll.group_id)
        placement = info.placement if info is not None else ()
        while roll.remaining and roll.remaining[0] not in placement:
            roll.remaining.pop(0)
        if not roll.remaining:
            self._finish(roll, None)
            return
        roll.current = roll.remaining.pop(0)
        self._issue(roll)

    def _issue(self, roll: "_Roll") -> None:
        roll.issuer = self.domain.coordinator_rm()
        roll.add = roll.issuer.multicast(DomainMessage(
            kind=MsgKind.ADD_REPLICA, source_group=0, target_group=0,
            data={"group_id": roll.group_id, "host": roll.current,
                  "replace": True}))

    def _finish(self, roll: "_Roll", error: Optional[Exception]) -> None:
        self._rolls.pop(roll.group_name, None)
        if error is None:
            roll.promise.resolve(roll.version)
        else:
            roll.promise.reject(error)


@dataclass
class _Roll:
    """One group's upgrade: the hosts left to replace, the host being
    replaced now, and its step's replacing ADD_REPLICA with the
    processor that multicast it."""

    group_name: str
    promise: Promise
    group_id: int = -1
    version: int = 0
    remaining: List[str] = field(default_factory=list)
    current: str = ""
    issuer: Optional["ReplicationMechanisms"] = None
    add: Optional[Queued] = None
