"""Canonical golden scenarios, shared by tests and analysis tools.

These are the two seeded end-to-end runs whose artifacts are pinned
byte-for-byte under ``tests/golden/``:

* :func:`run_failover_scenario` — the section 3.5 failover: the first
  gateway crashes at the exact instant a response reaches it and the
  enhanced client fails over to the second gateway.
* :func:`run_chaos_scenario` — a four-host domain with a scripted
  host crash mid-stream, recording the Totem delivery trace and final
  replica states.

They used to live inside the test files; they moved here so the race
detector (``tools/race_sweep.py``, ``python -m repro --race-sweep``)
can replay the *same* runs under permuted tie-break orders without
importing test code.  The tests delegate to these functions, so the
golden gate itself keeps the transcription honest: any drift in
construction order here breaks the byte-identical comparison there.

Every builder takes an optional ``scheduler`` so the sweep can inject
a :class:`~repro.analysis.race.RaceScheduler`; ``None`` means the
stock deterministic scheduler.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .. import FaultToleranceDomain, FtClientLayer, Orb, World
from ..apps import COUNTER_INTERFACE, CounterServant
from ..sim.world import SchedulerLike
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


def run_failover_scenario(seed: int = 350,
                          scheduler: Optional[SchedulerLike] = None) -> World:
    """The section 3.5 failover: the first gateway crashes at the exact
    instant the response reaches it; the enhanced client fails over."""
    world = World(seed=seed, trace=False, scheduler=scheduler)
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
                       scheduler: Optional[SchedulerLike] = None
                       ) -> Tuple[DeliveryTrace, Dict[str, int], str]:
    """Seeded crash scenario; returns (delivery trace, final counts,
    metrics JSON) for comparison against the committed golden."""
    world = World(seed=seed, trace=False, scheduler=scheduler)
    domain = _make_domain(world, num_hosts=4, gateways=2)
    group = _make_counter_group(domain, min_replicas=2)
    deliveries: DeliveryTrace = {name: [] for name in domain.members}
    for name, member in domain.members.items():
        member.on_deliver(
            lambda seq, sender, payload, n=name: deliveries[n].append(
                (seq, sender,
                 getattr(payload, "describe", lambda: repr(payload))())))
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


# ----------------------------------------------------------------------
# Artifact adapters for the permutation sweep
# ----------------------------------------------------------------------


def failover_artifacts(scheduler: Optional[SchedulerLike] = None
                       ) -> Mapping[str, str]:
    """Sweep artifacts for the failover golden scenario."""
    world = run_failover_scenario(scheduler=scheduler)
    semantic, effort = partition_metric_series(world.metrics_json())
    return {"metrics": semantic, "effort:metrics": effort}


def chaos_artifacts(scheduler: Optional[SchedulerLike] = None
                    ) -> Mapping[str, str]:
    """Sweep artifacts for the chaos golden scenario."""
    deliveries, finals, metrics_json = run_chaos_scenario(
        scheduler=scheduler)
    trace = json.dumps({"deliveries": deliveries, "final_counts": finals},
                       sort_keys=True, separators=(",", ":"))
    semantic, effort = partition_metric_series(metrics_json)
    return {"trace": trace, "metrics": semantic, "effort:metrics": effort}


#: Name -> artifact builder, as swept by ``tools/race_sweep.py`` and CI.
GOLDEN_SCENARIOS = {
    "failover_seed350": failover_artifacts,
    "chaos_seed5": chaos_artifacts,
}
