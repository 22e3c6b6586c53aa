#!/usr/bin/env python
"""Administering a fault tolerance domain from outside, via the gateway.

The paper notes (section 2) that the Replication Manager, Resource
Manager and Evolution Manager "are themselves implemented as collections
of CORBA objects and, thus, can themselves be replicated and thereby
benefit from Eternal's fault tolerance."  Consequence: an unreplicated
admin console outside the domain can drive the *replicated* Replication
Manager through the gateway exactly like any application object —
creating groups, inspecting fault tolerance properties, removing them —
and the console survives gateway failures like any enhanced client.

Run:  python examples/admin_console.py
"""

import json

from repro import FaultToleranceDomain, FtClientLayer, Orb, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.eternal import REPLICATION_MANAGER_GROUP, domain_report, format_report
from repro.eternal.managers import REPLICATION_MANAGER_INTERFACE


def main():
    world = World(seed=8080)
    domain = FaultToleranceDomain(world, "prod", num_hosts=4)
    domain.add_gateway(port=2809)
    domain.add_gateway(port=2809)
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("counter_factory", CounterServant)
    domain.await_stable()

    # The admin console: an unreplicated enhanced client outside 'prod'.
    console_host = world.add_host("ops-laptop")
    orb = Orb(world, console_host, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="ops/alice")
    manager_ior = domain.interceptor.published_ior(
        REPLICATION_MANAGER_GROUP, REPLICATION_MANAGER_INTERFACE.repo_id)
    manager = layer.string_to_object(manager_ior.to_string(),
                                     REPLICATION_MANAGER_INTERFACE)

    print("creating object groups through the replicated manager ...")
    for name, style, replicas in (("orders", "active", 3),
                                  ("sessions", "warm_passive", 3),
                                  ("audit", "cold_passive", 2)):
        ior = world.await_promise(manager.call(
            "create_object", name, "Counter", "counter_factory",
            style, replicas, 2, 10, []), timeout=600)
        print(f"  {name:<10} {style:<14} -> {ior[:40]}...")

    print("\nfault tolerance properties, as the manager reports them:")
    for name in ("orders", "sessions", "audit"):
        props = json.loads(world.await_promise(
            manager.call("get_properties", name), timeout=600))
        print(f"  {name:<10} {props}")

    print("\ncrashing gateway 0; console continues via gateway 1 ...")
    world.faults.crash_now(domain.gateways[0].host.name)
    world.await_promise(manager.call("remove_object", "audit"), timeout=600)
    print("  removed group 'audit' through the surviving gateway")
    print("  console failovers:", layer.failover_log)

    world.run(until=world.now + 0.5)
    print("\n" + format_report(domain_report(domain)))


if __name__ == "__main__":
    main()
