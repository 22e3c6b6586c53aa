"""Canonical golden scenarios, shared by tests and analysis tools.

The first two are the seeded end-to-end runs whose artifacts are pinned
byte-for-byte under ``tests/golden/``:

* :func:`run_failover_scenario` — the section 3.5 failover: the first
  gateway crashes at the exact instant a response reaches it and the
  enhanced client fails over to the second gateway.
* :func:`run_chaos_scenario` — a four-host domain with a scripted
  host crash mid-stream, recording the Totem delivery trace and final
  replica states.

A third exists for the race detector alone:

* :func:`run_parked_scenario` — a quiet ring whose token is parked,
  and two clients whose requests reach the two gateways in the same
  instant, so both gateways' ``TokenWanted`` reach the holder in the
  same instant too: who is served first must not depend on the order
  the LAN delivered them in.

They used to live inside the test files; they moved here so the race
detector (``tools/race_sweep.py``) can replay the *same* runs under
permuted tie-break orders without importing test code.  The tests delegate to these functions, so the
golden gate itself keeps the transcription honest: any drift in
construction order here breaks the byte-identical comparison there.

Every builder takes an optional ``scheduler`` so the sweep can inject
a :class:`~reprolint.race.RaceScheduler`; ``None`` means the
stock deterministic scheduler.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import FaultToleranceDomain, FtClientLayer, Ior, Orb, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.sim.scheduler import Scheduler

from .race import partition_metric_series

DeliveryTrace = Dict[str, List[Tuple[int, str, str]]]


def _make_domain(world: World, num_hosts: int,
                 gateways: int) -> FaultToleranceDomain:
    domain = FaultToleranceDomain(world, "dom", num_hosts=num_hosts)
    for _ in range(gateways):
        domain.add_gateway(port=2809)
    domain.await_stable()
    return domain


def _make_counter_group(domain: FaultToleranceDomain,
                        **kwargs: Any) -> Any:
    return domain.create_group("Counter", COUNTER_INTERFACE, CounterServant,
                               num_replicas=3, **kwargs)


def _replica_counts(domain: FaultToleranceDomain, group: Any
                    ) -> Dict[str, int]:
    values = {}
    for host_name, rm in domain.rms.items():
        record = rm.replicas.get(group.group_id)
        if record is not None and rm.alive:
            values[host_name] = record.servant.count
    return values


def _trace_deliveries(domain: FaultToleranceDomain) -> DeliveryTrace:
    """Record (seq, sender, payload description) at every member."""
    deliveries: DeliveryTrace = {name: [] for name in domain.members}
    for name, member in domain.members.items():
        member.on_deliver(
            lambda seq, sender, payload, n=name: deliveries[n].append(
                (seq, sender,
                 getattr(payload, "describe", lambda: repr(payload))())))
    return deliveries


def run_failover_scenario(seed: int = 350,
                          scheduler: Optional[Scheduler] = None) -> World:
    """The section 3.5 failover: the first gateway crashes at the exact
    instant the response reaches it; the enhanced client fails over."""
    world = World(seed=seed, scheduler=scheduler)
    domain = _make_domain(world, num_hosts=3, gateways=2)
    group = _make_counter_group(domain)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb)
    stub = layer.string_to_object(domain.ior_for(group).to_string(),
                                  group.interface)
    world.await_promise(stub.call("increment", 1), timeout=600)
    gateway = domain.gateways[0]

    def crash_instead(msg: Any) -> None:
        world.faults.crash_now(gateway.host.name)

    gateway._on_domain_response = crash_instead
    result = world.await_promise(stub.call("increment", 10), timeout=600)
    world.run(until=world.now + 1.0)
    assert result == 11
    assert set(_replica_counts(domain, group).values()) == {11}
    assert len(layer.failover_log) >= 1
    return world


def run_chaos_scenario(victim_index: int = 0, crash_delay: float = 0.09,
                       seed: int = 5,
                       scheduler: Optional[Scheduler] = None
                       ) -> Tuple[DeliveryTrace, Dict[str, int], str]:
    """Seeded crash scenario; returns (delivery trace, final counts,
    metrics JSON) for comparison against the committed golden."""
    world = World(seed=seed, scheduler=scheduler)
    domain = _make_domain(world, num_hosts=4, gateways=2)
    group = _make_counter_group(domain, min_replicas=2)
    deliveries = _trace_deliveries(domain)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="chaos")
    stub = layer.string_to_object(
        domain.ior_for(group).to_string(), COUNTER_INTERFACE)
    victims = [h.name for h in domain.hosts]
    victim = victims[victim_index % len(victims)]
    world.scheduler.call_after(
        crash_delay, lambda: world.faults.crash_now(victim))
    for _ in range(4):
        world.await_promise(stub.call("increment", 1), timeout=600)
    world.run(until=world.now + 2.0)
    finals = {}
    for host_name, rm in domain.rms.items():
        record = rm.replicas.get(group.group_id)
        if record is not None and rm.alive:
            finals[host_name] = record.servant.count
    return deliveries, finals, world.metrics_json()


def run_parked_scenario(seed: int = 9,
                        scheduler: Optional[Scheduler] = None
                        ) -> Tuple[DeliveryTrace, List[int], Dict[str, int],
                                   str]:
    """Three rounds of two simultaneous calls through different gateways
    into a ring whose token is parked; returns (delivery trace, replies
    in call order, final counts, metrics JSON)."""
    world = World(seed=seed, scheduler=scheduler)
    domain = _make_domain(world, num_hosts=3, gateways=2)
    group = _make_counter_group(domain)
    deliveries = _trace_deliveries(domain)
    ior = domain.ior_for(group)
    stubs = []
    for index, profiles in enumerate((ior.profiles, ior.profiles[::-1])):
        # The second client reads the profiles back to front, so it
        # binds to the other gateway.
        orb = Orb(world, world.add_host(f"browser{index}"),
                  request_timeout=None)
        layer = FtClientLayer(orb, client_uid=f"parked{index}")
        stubs.append(layer.string_to_object(
            Ior(ior.type_id, profiles).to_string(), COUNTER_INTERFACE))
    for stub in stubs:      # connect, one after the other
        world.await_promise(stub.call("increment", 0), timeout=600)
    replies: List[int] = []
    for round_ in range(3):
        # Long enough to park; the requests then arrive between two
        # keep-alive rotations or inside one, depending on the round.
        world.run(until=world.now + 0.020 + 0.001 * round_)
        calls = [stub.call("increment", 10 ** (2 * round_ + index))
                 for index, stub in enumerate(stubs)]
        replies.extend(world.await_promise(call, timeout=600)
                       for call in calls)
    world.run(until=world.now + 1.0)
    assert world.metrics.value("totem.token.handoffs") >= 3
    return (deliveries, replies, _replica_counts(domain, group),
            world.metrics_json())


# ----------------------------------------------------------------------
# Artifact adapters for the permutation sweep
# ----------------------------------------------------------------------


def failover_artifacts(scheduler: Optional[Scheduler] = None
                       ) -> Mapping[str, str]:
    """Sweep artifacts for the failover golden scenario."""
    world = run_failover_scenario(scheduler=scheduler)
    semantic, effort = partition_metric_series(world.metrics_json())
    return {"metrics": semantic, "effort:metrics": effort}


def chaos_artifacts(scheduler: Optional[Scheduler] = None
                    ) -> Mapping[str, str]:
    """Sweep artifacts for the chaos golden scenario."""
    deliveries, finals, metrics_json = run_chaos_scenario(
        scheduler=scheduler)
    trace = json.dumps({"deliveries": deliveries, "final_counts": finals},
                       sort_keys=True, separators=(",", ":"))
    semantic, effort = partition_metric_series(metrics_json)
    return {"trace": trace, "metrics": semantic, "effort:metrics": effort}


def parked_artifacts(scheduler: Optional[Scheduler] = None
                     ) -> Mapping[str, str]:
    """Sweep artifacts for the parked-ring scenario."""
    deliveries, replies, finals, metrics_json = run_parked_scenario(
        scheduler=scheduler)
    trace = json.dumps({"deliveries": deliveries, "replies": replies,
                        "final_counts": finals},
                       sort_keys=True, separators=(",", ":"))
    semantic, effort = partition_metric_series(metrics_json)
    return {"trace": trace, "metrics": semantic, "effort:metrics": effort}


#: Name -> artifact builder, as swept by ``tools/race_sweep.py`` and CI.
GOLDEN_SCENARIOS = {
    "failover_seed350": failover_artifacts,
    "chaos_seed5": chaos_artifacts,
    "parked_seed9": parked_artifacts,
}
