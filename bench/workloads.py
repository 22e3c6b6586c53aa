"""The four workloads, driven through the public ``repro`` API.

:func:`build` is a workload's whole set-up: worlds, domains, groups,
clients, connections.  It returns the :class:`Segment` s that the
harness then runs and times one after another; a segment is one
stretch of load on one simulated world (a rung of the farm ladder, a
replication style of the bank, one fault trial).  :func:`observe`
drains a world and reads back what the oracle checks.

An op is recorded as ``[due, end, outcome, args]`` on the simulated
clock: ``due`` is when it was to be issued (open loops are timed from
it), ``end`` when its promise resolved, ``args`` the operation's
argument list, ``outcome`` one of
:data:`SERVED`, :data:`SHED`, :data:`FAILED` or ``None`` (never
completed).
"""

from __future__ import annotations

import zlib
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro import (FaultToleranceDomain, FtClientLayer, GatewayPool, Orb,
                   ReplicationStyle, TotemConfig, World)
from repro.apps import (ACCOUNT_INTERFACE, COUNTER_INTERFACE, LEDGER_INTERFACE,
                        TRANSFER_INTERFACE, AccountServant, CounterServant,
                        LedgerServant, TransferAgentServant)
from repro.errors import CorbaSystemException, SimulationError

from .oracle import FAILED, SERVED, SHED

#: Simulated seconds a segment may take before it counts as hung.
SIM_TIMEOUT_S = 60.0
SETTLE_S = 0.5      # between farm rungs: queues empty, breakers close
DRAIN_S = 1.0       # before the oracle reads replica state and the audit

# The farm configuration the repo established (docs/PERFORMANCE.md):
# tight admission windows so the pool, not the ring, is the bottleneck.
FARM_GATEWAYS = 4
FARM_CLIENT_HOSTS = 4
FARM_WINDOW = 8
FARM_QUEUE = 16
FARM_TOKEN_QUOTA = 64
FAILOVER_CHECKPOINT_INTERVAL = 5


class Cell:
    """One simulated world of a workload and what the oracle reads."""

    def __init__(self, world: World, domain: FaultToleranceDomain,
                 groups: Dict[str, Any]) -> None:
        self.world = world
        self.domain = domain
        self.groups = groups
        self.requesters: List[Any] = []     # for orb.reissued / failovers
        self.warmup_sum = 0                 # counter increments of set-up


class Segment:
    """One timed stretch of load on one cell."""

    def __init__(self, name: str, cell: Cell, ops: List[list],
                 start: Callable[["Segment"], None],
                 faults: Sequence[Tuple[float, str]] = (),
                 settle: float = 0.0) -> None:
        self.name = name
        self.cell = cell
        self.ops = ops
        self._start = start
        self.faults = list(faults)          # (offset from base, host to crash)
        self.settle = settle
        self.base = 0.0
        self.resolved = 0
        self.timed_out: Optional[str] = None

    def slices(self, ops_per_slice: int) -> Iterator[None]:
        """Run the load, yielding whenever another ``ops_per_slice`` ops
        have resolved and once at the end.  While the generator is
        suspended the simulation stands still, so the harness can time
        its reference kernel there without touching a simulated number."""
        world = self.cell.world
        self.base = world.now
        self._start(self)
        for at, victim in self.faults:
            world.faults.crash_host(victim, at=self.base + at)
        target = 0
        while target < len(self.ops) and not self.timed_out:
            target = min(len(self.ops), target + ops_per_slice)
            try:
                world.scheduler.run_until(lambda: self.resolved >= target,
                                          timeout=SIM_TIMEOUT_S)
            except SimulationError as exc:
                # A hang: the unresolved ops keep outcome None and count
                # as failed; the caller exits non-zero.
                self.timed_out = str(exc)
            yield

    def run(self) -> None:
        for _ in self.slices(len(self.ops)):
            pass

    def call(self, stub: Any, operation: str, args: Sequence[Any],
             rec: list, then: Optional[Callable[[], None]] = None) -> None:
        world = self.cell.world

        def done(promise: Any) -> None:
            if self.timed_out:
                return      # the drain must not rescue an op of a hung segment
            rec[1] = world.now
            if not promise.failed:
                rec[2] = SERVED
            elif (isinstance(promise.error, CorbaSystemException)
                  and "Transient" in str(promise.error)):
                rec[2] = SHED       # admission control's TRANSIENT refusal
            else:
                rec[2] = FAILED
            self.resolved += 1
            if then is not None:
                then()

        stub.call(operation, *args).on_done(done)


def _domain(world: World, gateways: int, num_hosts: int = 3,
            totem_config: Optional[TotemConfig] = None) -> FaultToleranceDomain:
    domain = FaultToleranceDomain(world, "dom", num_hosts=num_hosts,
                                  totem_config=totem_config)
    for _ in range(gateways):
        domain.add_gateway(port=2809, mirror_requests=True)
    return domain


def _counter_cell(domain: FaultToleranceDomain, **group_opts: Any) -> Cell:
    """Stabilise the domain and put a 3-replica counter group in it."""
    domain.await_stable()
    group = domain.create_group("Counter", COUNTER_INTERFACE, CounterServant,
                                num_replicas=3, **group_opts)
    domain.await_ready(group)
    return Cell(domain.world, domain, {"Counter": group})


def _persistent_clients(cell: Cell, group: Any,
                        distances: Sequence[float]) -> List[Any]:
    """Enhanced clients whose stub, connection and IOR are built once,
    each at its own one-way WAN distance from the gateways."""
    ior = cell.domain.ior_for(group).to_string()
    latency = cell.world.network.latency_model
    stubs = []
    for i, distance in enumerate(distances):
        host = cell.world.add_host(f"client{i}")
        for gateway in cell.domain.gateways:
            latency.set_pair(host.name, gateway.host.name, distance)
        orb = Orb(cell.world, host, request_timeout=None)
        stub = FtClientLayer(orb, client_uid=f"client/{i}").string_to_object(
            ior, group.interface)
        cell.requesters.append(stub.requester)
        stubs.append(stub)
    return stubs


def _closed_loop(name: str, cell: Cell, stubs: Sequence[Any],
                 operation: str, clients: Sequence[Dict[str, Any]]
                 ) -> Segment:
    """Each client thinks, issues its next op, and waits for it to
    resolve; ``clients[i]`` holds that client's ``thinks`` and ``args``."""
    payloads = [client["args"] for client in clients]
    first = [sum(len(p) for p in payloads[:c]) for c in range(len(payloads))]
    ops = [[0.0, None, None, payload] for p in payloads for payload in p]

    def start(seg: Segment) -> None:
        world = cell.world

        def issue(client: int, k: int) -> None:
            rec = seg.ops[first[client] + k]
            rec[0] = world.now
            seg.call(stubs[client], operation, rec[3], rec,
                     then=lambda: think(client, k + 1))

        def think(client: int, k: int) -> None:
            if k < len(payloads[client]):
                world.scheduler.post(clients[client]["thinks"][k],
                                     issue, client, k)

        for client in range(len(stubs)):
            think(client, 0)

    return Segment(name, cell, ops, start)


def _open_loop(name: str, cell: Cell, dues: Sequence[float],
               amounts: Sequence[int], stub_for: Callable[[int], Any],
               **segment_opts: Any) -> Segment:
    """Op ``i`` increments by ``amounts[i]`` through ``stub_for(i)`` at
    ``dues[i]``, whatever has or has not completed by then.  Ops due at
    the same instant are injected as one ``post_batch`` cohort."""

    def start(seg: Segment) -> None:
        def fire(i: int) -> None:
            rec = seg.ops[i]
            seg.call(stub_for(i), "increment", rec[3], rec)

        cohorts: Dict[float, List[tuple]] = {}
        for i, rec in enumerate(seg.ops):
            cohorts.setdefault(rec[0], []).append((i,))
            rec[0] += seg.base
        for due in sorted(cohorts):
            cell.world.scheduler.post_batch(due, fire, cohorts[due])

    ops = [[due, None, None, [amount]] for due, amount in zip(dues, amounts)]
    return Segment(name, cell, ops, start, **segment_opts)


# ----------------------------------------------------------------------
# The four workloads
# ----------------------------------------------------------------------

def _build_farm(inputs: Dict[str, Any], world_opts: Dict[str, Any]
                ) -> List[Segment]:
    world = World(seed=inputs["world_seed"], trace=False, **world_opts)
    domain = _domain(world, gateways=0, totem_config=TotemConfig(
        max_messages_per_token=FARM_TOKEN_QUOTA))
    pool = GatewayPool(domain, size=FARM_GATEWAYS,
                       admission_window=FARM_WINDOW,
                       admission_queue_limit=FARM_QUEUE)
    cell = _counter_cell(domain)
    group = cell.groups["Counter"]
    orbs = [Orb(world, world.add_host(f"farmhost{i}"), request_timeout=None)
            for i in range(FARM_CLIENT_HOSTS)]

    def fresh_client(uid: str) -> Any:
        """Every arrival is its own logical client: route, IOR, stub."""
        key = f"{uid}#1"
        pool.route(key)
        orb = orbs[zlib.crc32(uid.encode("utf-8")) % FARM_CLIENT_HOSTS]
        layer = FtClientLayer(orb, client_uid=uid)
        stub = layer.string_to_object(pool.ior_for(group, key).to_string(),
                                      group.interface, multiplexed=True)
        cell.requesters.append(stub.requester)
        return stub

    # Warm-up belongs to set-up: a slow trickle that opens every
    # host-to-gateway connection, so the first rung does not start with
    # a burst queued behind sixteen TCP handshakes.
    count = inputs["warmup"]
    warm = _open_loop("warmup", cell, [i * 0.005 for i in range(count)],
                      [1] * count, lambda i: fresh_client(f"farm/warm/{i}"))
    warm.run()
    world.run(until=world.now + SETTLE_S)
    cell.warmup_sum = sum(1 for rec in warm.ops if rec[2] == SERVED)

    return [
        _open_loop(f"rate{rung['rate']}", cell, rung["dues"], rung["amounts"],
                   lambda i, rate=rung["rate"]: fresh_client(f"farm/{rate}/{i}"),
                   settle=SETTLE_S)
        for rung in inputs["rungs"]]


def _build_steady(inputs: Dict[str, Any], world_opts: Dict[str, Any]
                  ) -> List[Segment]:
    world = World(seed=inputs["world_seed"], trace=False, **world_opts)
    cell = _counter_cell(_domain(world, gateways=2))
    stubs = _persistent_clients(cell, cell.groups["Counter"],
                                inputs["distances"])
    return [_closed_loop("steady", cell, stubs, "increment",
                         inputs["clients"])]


def _build_bank(inputs: Dict[str, Any], world_opts: Dict[str, Any]
                ) -> List[Segment]:
    segments = []
    for index, style_name in enumerate(inputs["styles"]):
        world = World(seed=inputs["world_seed"] + index, trace=False,
                      **world_opts)
        domain = _domain(world, gateways=2)
        domain.await_stable()
        style = ReplicationStyle(style_name)
        groups = {
            "Accounts": domain.create_group(
                "Accounts", ACCOUNT_INTERFACE, AccountServant, style=style),
            "Ledger": domain.create_group(
                "Ledger", LEDGER_INTERFACE, LedgerServant, style=style),
            "TransferAgent": domain.create_group(
                "TransferAgent", TRANSFER_INTERFACE, TransferAgentServant,
                style=style),
        }
        for group in groups.values():
            domain.await_ready(group)
        world.run_until_done(
            [groups["Accounts"].invoke("deposit", owner, inputs["opening"])
             for owner in inputs["accounts"]])
        cell = Cell(world, domain, groups)
        stubs = _persistent_clients(cell, groups["TransferAgent"],
                                    inputs["distances"])
        segments.append(_closed_loop(style_name, cell, stubs, "transfer",
                                     inputs["clients"]))
    return segments


def _build_failover(inputs: Dict[str, Any], world_opts: Dict[str, Any]
                    ) -> List[Segment]:
    segments = []
    for index, trial in enumerate(inputs["trials"]):
        world = World(seed=trial["world_seed"], trace=False, **world_opts)
        cell = _counter_cell(
            _domain(world, gateways=2, num_hosts=4),
            style=ReplicationStyle(trial["style"]), min_replicas=2,
            checkpoint_interval=FAILOVER_CHECKPOINT_INTERVAL)
        group = cell.groups["Counter"]
        stubs = _persistent_clients(cell, group, inputs["distances"])
        # Gateway 0's host goes first, then the group's primary/leader.
        victims = [
            cell.domain.gateways[0].host.name,
            group.info().primary(cell.domain.coordinator_rm().live_hosts),
        ]
        segments.append(_open_loop(
            f"{trial['style']}.{index}", cell, trial["dues"], trial["amounts"],
            lambda i, stubs=stubs: stubs[i % len(stubs)],
            faults=list(zip(trial["faults"], victims))))
    return segments


_BUILDERS = {
    "farm_open": _build_farm,
    "steady_closed": _build_steady,
    "bank_styles": _build_bank,
    "failover_open": _build_failover,
}


def build(workload: str, inputs: Dict[str, Any],
          **world_opts: Any) -> List[Segment]:
    """Set the workload up; ``world_opts`` arm tracing on every world."""
    return _BUILDERS[workload](inputs, world_opts)


# ----------------------------------------------------------------------
# Observation (what the oracle reads back)
# ----------------------------------------------------------------------

def _replica_servants(cell: Cell, group: Any) -> Dict[str, Any]:
    """Servants of the live, ready replicas that hold current state.

    A cold-passive backup holds only checkpoints and a log, so for that
    style the primary alone carries the state to check.
    """
    info = group.info()
    live = cell.domain.coordinator_rm().live_hosts
    hosts = ([info.primary(live)]
             if info.style is ReplicationStyle.COLD_PASSIVE
             else info.live_replicas(live))
    servants = {}
    for host in hosts:
        rm = cell.domain.rms.get(host)
        record = rm.replicas.get(group.group_id) if rm and rm.alive else None
        if record is not None and record.ready:
            servants[host] = record.servant
    return servants


def observe(cell: Cell) -> Dict[str, Any]:
    """Drain the world, then read replica state and the leak audit."""
    world = cell.world
    world.run(until=world.now + DRAIN_S)
    state: Dict[str, Any] = {
        "audit_violations": len(world.audit().violations),
        "warmup_sum": cell.warmup_sum,
    }
    if "Counter" in cell.groups:
        state["counts"] = {
            host: servant.count for host, servant in
            _replica_servants(cell, cell.groups["Counter"]).items()}
    else:
        state["balance_totals"] = {
            host: sum(servant.balances.values()) for host, servant in
            _replica_servants(cell, cell.groups["Accounts"]).items()}
        state["ledger_entries"] = {
            host: len(servant.log) for host, servant in
            _replica_servants(cell, cell.groups["Ledger"]).items()}
        state["transfers_done"] = {
            host: servant.completed for host, servant in
            _replica_servants(cell, cell.groups["TransferAgent"]).items()}
    return state
