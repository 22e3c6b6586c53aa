"""Fault tolerance domain orchestration.

A :class:`FaultToleranceDomain` is "the domain of control of the fault
tolerance infrastructure" (paper section 1): a set of processors that
run Totem and the Eternal Replication Mechanisms, the replicated
manager objects, zero or more gateways on its edge, and the replicated
application groups inside.

The domain object is deliberately the *only* piece of the reproduction
that knows how everything is wired; tests, examples and benchmarks
build domains and then talk CORBA.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError, TransientError
from ..iiop.ior import Ior
from ..orb.idl import Interface
from ..orb.servant import Servant
from ..sim.host import Host
from ..sim.world import Promise, World
from ..totem.member import TotemConfig, TotemMember
from ..totem.transport import TotemTransport
from .egress import DomainEgress
from .fault_detector import FaultDetector
from .interceptor import EternalInterceptor
from .managers import (
    EvolutionManager,
    REPLICATION_MANAGER_INTERFACE,
    ReplicationManagerServant,
    ResourceManager,
)
from .messages import DomainMessage, MsgKind
from .naming import GATEWAY_GROUP, REPLICATION_MANAGER_GROUP
from .registry import GroupInfo
from .replication import ReplicationMechanisms
from .styles import ReplicationStyle

REPLICATION_MANAGER_FACTORY = "eternal.replication_manager"


class GroupHandle:
    """Convenience handle for one replicated object group."""

    def __init__(self, domain: "FaultToleranceDomain", group_id: int,
                 name: str, interface: Interface) -> None:
        self.domain = domain
        self.group_id = group_id
        self.name = name
        self.interface = interface

    def invoke(self, operation: str, *args: Any) -> Promise:
        return self.domain.invoke(self, operation, list(args))

    def info(self) -> Optional[GroupInfo]:
        return self.domain.coordinator_rm().registry.get(self.group_id)

    def ready_hosts(self) -> List[str]:
        """The placed hosts whose live replica reports installed state."""
        info = self.info()
        return [host for host in (info.placement if info else ())
                if (rm := self.domain.rms.get(host)) is not None and rm.alive
                and (record := rm.replicas.get(self.group_id)) is not None
                and record.ready]

    def is_ready(self) -> bool:
        """True when every placed replica reports installed state."""
        info = self.info()
        return bool(info and info.placement
                    and len(self.ready_hosts()) == len(info.placement))

    def __repr__(self) -> str:
        return f"<GroupHandle {self.name} gid={self.group_id}>"


class FaultToleranceDomain:
    """One fault tolerance domain: hosts, Totem ring, RMs, gateways."""

    def __init__(
        self,
        world: World,
        name: str,
        num_hosts: int = 3,
        totem_config: Optional[TotemConfig] = None,
        site: Optional[str] = None,
    ) -> None:
        self.world = world
        self.name = name
        self.site = site or name
        self.totem_config = totem_config or TotemConfig()
        self.transport = TotemTransport(world.network, name)
        self.interfaces: Dict[str, Interface] = {}
        self.factories: Dict[str, Callable[..., Servant]] = {}
        self.hosts: List[Host] = []
        self.members: Dict[str, TotemMember] = {}
        self.rms: Dict[str, ReplicationMechanisms] = {}
        self.egresses: Dict[str, DomainEgress] = {}
        self.fault_detectors: Dict[str, FaultDetector] = {}
        self.gateways: List[Any] = []          # repro.core.gateway.Gateway
        self.replica_host_names: List[str] = []
        self.interceptor = EternalInterceptor(self)
        self.evolution = EvolutionManager(self)
        self._invoke_seq = itertools.count(1)
        # Unanswered driver calls: seq -> (issuing RM, or None while the
        # group has no ready replica; issue again).
        self._calls: Dict[int, Tuple[Optional[ReplicationMechanisms],
                                     Callable[[], None]]] = {}
        world.audit_scope.register("domain.calls", lambda: len(self._calls),
                                   owner=f"domain/{name}")
        self._handles: Dict[int, GroupHandle] = {}
        self._naming: Optional[GroupHandle] = None
        self.manager = GroupHandle(self, REPLICATION_MANAGER_GROUP,
                                    "EternalReplicationManager",
                                    REPLICATION_MANAGER_INTERFACE)

        self.register_interface(REPLICATION_MANAGER_INTERFACE)
        self.register_factory(REPLICATION_MANAGER_FACTORY,
                              self._make_replication_manager)

        self._bootstrapped = False
        for i in range(num_hosts):
            self._add_processor(f"{name}-h{i}", replica_host=True)
        self._bootstrap_managers()
        self._bootstrapped = True

    # ==================================================================
    # Construction
    # ==================================================================

    def _add_processor(self, host_name: str, replica_host: bool) -> Host:
        host = self.world.add_host(host_name, site=self.site)
        self.hosts.append(host)
        if replica_host:
            # The live list object is shared so later-added replica hosts
            # become replacement candidates everywhere.
            self.replica_host_names.append(host_name)
        # Processors added after bootstrap join a running domain and must
        # receive the directory snapshot before acting on deliveries.
        self._start_software(host, synced=not self._bootstrapped)
        return host

    def _start_software(self, host: Host,
                        synced: bool) -> ReplicationMechanisms:
        """Start one processor's Eternal stack: its Totem member,
        Replication Mechanisms, egress and the domain's recovery hooks,
        and on a replica host its Resource Manager and FaultDetector."""
        name = host.name
        member = TotemMember(host, name, self.transport,
                             config=self.totem_config)
        rm = ReplicationMechanisms(
            host, member, self.name, self.interfaces, self.factories,
            synced=synced)
        self.egresses[name] = DomainEgress(rm, self.world)
        rm.on_membership_change(lambda live, rm=rm: self._on_membership(rm))
        rm.on_directory_change(self._on_directory_change)
        self.members[name] = member
        self.rms[name] = rm
        if name in self.replica_host_names:
            ResourceManager(rm, self.replica_host_names)  # held by rm's hooks
            self.fault_detectors[name] = FaultDetector(rm)
        member.start()
        return rm

    def _bootstrap_managers(self) -> None:
        placement = tuple(self.replica_host_names[:3])
        info = GroupInfo(
            group_id=REPLICATION_MANAGER_GROUP,
            name=self.manager.name,
            interface_name=REPLICATION_MANAGER_INTERFACE.name,
            factory_name=REPLICATION_MANAGER_FACTORY,
            style=ReplicationStyle.ACTIVE,
            placement=placement,
            min_replicas=min(2, len(placement)),
        )
        self._announce(info)

    def _make_replication_manager(self, rm: ReplicationMechanisms) -> Servant:
        return ReplicationManagerServant(
            rm, self._build_ior_string, self.replica_host_names)

    def _build_ior_string(self, group_id: int, interface_name: str) -> str:
        interface = self.interfaces.get(interface_name)
        type_id = interface.repo_id if interface else f"IDL:repro/{interface_name}:1.0"
        if not self.gateways:
            # A domain without gateways publishes a reference that only
            # in-domain callers can use; encode it with a placeholder
            # endpoint so the group id still travels in the object key.
            from ..iiop.ior import stitch_profiles
            from .naming import make_object_key
            return stitch_profiles(type_id, [("unroutable", 0)],
                                   make_object_key(self.name, group_id)
                                   ).to_string()
        return self.interceptor.published_ior(group_id, type_id).to_string()

    # ==================================================================
    # Public configuration API
    # ==================================================================

    def register_interface(self, interface: Interface) -> None:
        self.interfaces[interface.name] = interface

    def register_factory(self, name: str,
                         factory: Callable[..., Servant]) -> None:
        self.factories[name] = factory

    def enable_naming(self, num_replicas: int = 3) -> GroupHandle:
        """Create the replicated Naming Service for this domain.

        Once enabled, every group created afterwards (and every group
        already known) is bound under its name, so external clients can
        bootstrap from the naming service's IOR alone.
        """
        from ..apps.naming import NAMING_INTERFACE, NamingServant
        if self._naming is not None:
            return self._naming
        self._naming = self.create_group(
            "EternalNaming", NAMING_INTERFACE, NamingServant,
            style=ReplicationStyle.ACTIVE,
            num_replicas=min(num_replicas, len(self.replica_host_names)))
        for handle in list(self._handles.values()):
            if handle is not self._naming:
                self._bind_name(handle)
        return self._naming

    def _bind_name(self, handle: GroupHandle) -> None:
        if self._naming is None or handle is self._naming:
            return
        if not self.gateways:
            return  # nothing externally resolvable to bind yet
        self.invoke(self._naming, "rebind",
                    [handle.name, self.ior_for(handle).to_string()])

    def add_gateway(self, port: int = 2809, mirror_requests: bool = True,
                    host_name: Optional[str] = None) -> Any:
        """Add a gateway processor on the domain's edge (section 3).

        ``mirror_requests``: does this gateway record the requests its
        peers forward (section 3.5's gateway group, the default) or
        only its own (section 3.4's isolated gateway)?  Its admission
        gate is armed by :meth:`Gateway.arm_admission` (a
        :class:`~repro.core.gateway_pool.GatewayPool` arms every gateway
        it adopts).
        """
        from ..core.gateway import Gateway  # local import: layering
        host_name = host_name or f"{self.name}-gw{len(self.gateways)}"
        host = self._add_processor(host_name, replica_host=False)
        gateway = Gateway(self, host, port, mirror_requests=mirror_requests)
        self.gateways.append(gateway)
        gateway.start()
        self._announce(GroupInfo(
            group_id=GATEWAY_GROUP,
            name="EternalGateways",
            interface_name="",
            factory_name="",
            style=ReplicationStyle.ACTIVE,
            placement=tuple(gw.host.name for gw in self.gateways),
            min_replicas=0,
        ))
        return gateway

    def create_group(
        self,
        name: str,
        interface: Interface,
        factory: Callable[..., Servant],
        style: ReplicationStyle = ReplicationStyle.ACTIVE,
        num_replicas: int = 3,
        min_replicas: Optional[int] = None,
        placement: Optional[Sequence[str]] = None,
        checkpoint_interval: int = 10,
    ) -> GroupHandle:
        """Create a replicated object group: invoke ``create_object`` on
        the replicated Replication Manager, which allocates the id and
        places the replicas, and run until its reply is in.  Its
        GROUP_ANNOUNCE is ordered before the reply, so the group is in
        the directory; :meth:`await_ready` waits for its replicas."""
        if placement is None and num_replicas > len(self.replica_host_names):
            raise ConfigurationError(
                f"asked for {num_replicas} replicas but domain has "
                f"{len(self.replica_host_names)} replica hosts")
        self.register_interface(interface)
        factory_name = f"factory.{name}"
        self.register_factory(factory_name, factory)
        self.world.await_promise(self.invoke(
            self.manager, "create_object",
            [name, interface.name, factory_name, style.value, num_replicas,
             num_replicas if min_replicas is None else min_replicas,
             checkpoint_interval, list(placement or ())]))
        handle = self.resolve(name)
        self._bind_name(handle)
        return handle

    def _announce(self, info: GroupInfo) -> None:
        self.coordinator_rm().multicast(DomainMessage(
            kind=MsgKind.GROUP_ANNOUNCE, source_group=0, target_group=0,
            data={"info": info}))

    def switch_style(self, group: Union[GroupHandle, str, int],
                     style: ReplicationStyle) -> Promise:
        """Switch a live group's replication style at runtime: invoke
        ``switch_style`` on the replicated Replication Manager, which
        checks it (stateful styles only) and multicasts the STYLE_SWITCH.
        Returns the invocation's promise.

        The STYLE_SWITCH's position in the total order is the quiesce
        point: operations ordered before it complete under the old
        engine, operations after it run under the new one, and no
        invocation is lost or duplicated across the cut.
        """
        return self.invoke(self.manager, "switch_style",
                           [self.resolve(group).name, style.value])

    # ==================================================================
    # Invocation (driver/ambassador API)
    # ==================================================================

    def coordinator_rm(self) -> ReplicationMechanisms:
        """The RM used for driver-originated traffic: the first live
        processor's that holds the directory (a restarted one has none)."""
        for host in self.hosts:
            rm = self.rms.get(host.name)
            if rm is not None and rm.alive and rm.synced:
                return rm
        raise ConfigurationError(f"domain {self.name!r} has no synced host")

    def resolve(self, group: Union[GroupHandle, str, int]) -> GroupHandle:
        if isinstance(group, GroupHandle):
            return group
        registry = self.coordinator_rm().registry
        info = (registry.get(group) if isinstance(group, int)
                else registry.by_name(group))
        if info is None:
            raise ConfigurationError(f"unknown group {group!r}")
        handle = self._handles.get(info.group_id)
        if handle is None:
            interface = self.interfaces[info.interface_name]
            handle = GroupHandle(self, info.group_id, info.name, interface)
            self._handles[info.group_id] = handle
        return handle

    def invoke(self, group: Union[GroupHandle, str, int], operation: str,
               args: Sequence[Any], settle_timeout: float = 10.0) -> Promise:
        """Invoke a replicated group from the domain driver: issued from
        the coordinator once a replica is ready (tried again at each
        directory change, for ``settle_timeout`` at most), and issued
        again from the coordinator under the same ``(driver uid,
        request seq)`` key if the issuing processor leaves before the
        reply.  Replicas deduplicate by that key, so the call executes
        once."""
        handle = self.resolve(group)
        promise = Promise()
        seq = next(self._invoke_seq)
        promise.on_done(lambda _: self._calls.pop(seq, None))
        deadline = None                 # the readiness wait's one timer

        def expire() -> None:
            if not promise.done and self._calls[seq][0] is None:
                promise.reject(TransientError(
                    f"group {handle.name} never became ready"))

        def settle(inner: Promise) -> None:
            # Only one settles: a dead issuer's promise never does.
            if inner.failed:
                promise.reject(inner.error)
            else:
                promise.resolve(inner.value)

        def try_issue() -> None:
            nonlocal deadline
            if promise.done:
                return
            try:
                rm = self.coordinator_rm()
            except ConfigurationError as exc:
                promise.reject(exc)
                return
            if not handle.ready_hosts():
                self._calls[seq] = (None, try_issue)
                if deadline is None:
                    deadline = self.world.scheduler.call_after(
                        settle_timeout, expire)
                return
            self._calls[seq] = (rm, try_issue)
            rm.external_invoke(
                handle.group_id, operation, list(args),
                client_uid=f"driver/{self.name}", request_seq=seq
            ).on_done(settle)

        try_issue()
        return promise

    def _on_membership(self, rm: ReplicationMechanisms) -> None:
        """At the coordinator's membership change, what a departed
        processor issued is issued again from the coordinator: driver
        calls here, rolling-upgrade steps in the Evolution Manager."""
        try:
            if rm is not self.coordinator_rm():
                return
        except ConfigurationError:
            return
        for issuer, issue in list(self._calls.values()):
            if issuer is not None and self.departed(issuer, rm):
                issue()
        self.evolution.on_membership(rm)

    def departed(self, issuer: ReplicationMechanisms,
                 rm: ReplicationMechanisms) -> bool:
        """Has ``issuer``'s processor left ``rm``'s membership, or come
        back as a new incarnation (restarted before the ring excluded
        it), so that what it had queued or awaited is lost?"""
        name = issuer.host.name
        return name not in rm.live_hosts or self.rms.get(name) is not issuer

    def _on_directory_change(self, msg: DomainMessage) -> None:
        """A directory change may end a rolling-upgrade step, or give a
        waiting call's group its first ready replica."""
        if msg.kind is MsgKind.REPLICA_READY:
            self.evolution.on_ready(msg.data["group_id"], msg.data["host"],
                                    msg.data["version"])
        for issuer, issue in list(self._calls.values()):
            if issuer is None:
                issue()

    # ==================================================================
    # References and status
    # ==================================================================

    def ior_for(self, group: Union[GroupHandle, str, int],
                first_gateway_only: bool = False) -> Ior:
        handle = self.resolve(group)
        return self.interceptor.published_ior(
            handle.group_id, handle.interface.repo_id,
            first_gateway_only=first_gateway_only)

    def is_stable(self) -> bool:
        """All live members operational on one ring, registries synced."""
        live = [m for m in self.members.values() if m.alive]
        if not live:
            return False
        expected = {m.name for m in live}
        if not all(m.state == TotemMember.OPERATIONAL and
                   set(m.members) == expected for m in live):
            return False
        # Synced registries that have seen the manager bootstrap: a domain
        # is not usable until its directory reached every processor.
        return all(rm.synced and REPLICATION_MANAGER_GROUP in rm.registry
                   for rm in self.rms.values() if rm.alive)

    def await_stable(self, timeout: float = 30.0) -> None:
        self.world.scheduler.run_until(self.is_stable, timeout=timeout)

    def await_ready(self, handle: GroupHandle, timeout: float = 30.0) -> None:
        self.world.scheduler.run_until(handle.is_ready, timeout=timeout)

    def restart_host(self, host_name: str) -> ReplicationMechanisms:
        """Restart the Eternal software on a recovered replica processor.

        The processor itself must already be up (``Host.recover``); this
        starts its Eternal stack afresh, as :meth:`_add_processor` did.
        The new RM joins unsynced: it buffers deliveries until an
        incumbent sends the directory snapshot, after which the Resource
        Manager may place replacement replicas on it again.
        """
        host = self.world.network.host(host_name)
        if not host.alive:
            raise ConfigurationError(
                f"recover host {host_name} before restarting its software")
        if host_name in self.rms and self.rms[host_name].alive:
            raise ConfigurationError(f"{host_name} is already running")
        if any(gw.host.name == host_name for gw in self.gateways):
            raise ConfigurationError(
                "gateway processors are restarted via add_gateway")
        return self._start_software(host, synced=False)
