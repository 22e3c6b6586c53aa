#!/usr/bin/env python
"""Quickstart: an unreplicated client invoking a replicated counter.

This is the paper's Figure 3 in one short script: a fault tolerance domain of
three processors runs an actively replicated Counter; a gateway sits on
the domain's edge; an unreplicated CORBA client connects to the gateway
(believing it to be the server, because the published IOR says so) and
invokes operations.  Every replica executes each invocation and
computes a response; the client gets exactly one.  The redundant copies
are recognised by the operation identifier in their header — at the
sender, which withdraws a copy still in its send queue once a sibling's
has been delivered, and at the gateway, which suppresses any copy that
reached the ring anyway.  The second half of the run slows one link so
that copies do cross and the gateway's filter is seen at work.

Run:  python examples/quickstart.py
"""

from repro import FaultToleranceDomain, Orb, ReplicationStyle, World
from repro.apps import COUNTER_INTERFACE, CounterServant


def main():
    # One simulated world: deterministic scheduler + network + TCP.
    world = World(seed=42)

    # A fault tolerance domain with three processors and one gateway.
    domain = FaultToleranceDomain(world, "demo", num_hosts=3)
    gateway = domain.add_gateway(port=2809)

    # An actively replicated Counter group (one replica per processor).
    group = domain.create_group(
        "Counter", COUNTER_INTERFACE, CounterServant,
        style=ReplicationStyle.ACTIVE, num_replicas=3)
    domain.await_stable()

    # The IOR Eternal publishes points at the GATEWAY, not any replica.
    ior = domain.ior_for(group)
    print("published IOR  ->", ior.to_string()[:64], "...")
    print("IOR endpoint   ->", ior.primary_profile().address,
          "(the gateway; the replicas are hidden)")

    # An unreplicated client outside the domain: plain ORB, plain IIOP.
    browser = world.add_host("browser")
    orb = Orb(world, browser)
    counter = orb.string_to_object(ior.to_string(), COUNTER_INTERFACE)

    print("\ninvoking increment(5), increment(3), value() ...")
    print("increment(5) ->", world.await_promise(counter.call("increment", 5)))
    print("increment(3) ->", world.await_promise(counter.call("increment", 3)))
    print("value()      ->", world.await_promise(counter.call("value")))

    # Show what happened behind the gateway.
    world.run(until=world.now + 0.1)
    print("\nreplica states (all identical — strong replica consistency):")
    for host_name, rm in sorted(domain.rms.items()):
        record = rm.replicas.get(group.group_id)
        if record is not None:
            print(f"  {host_name}: count = {record.servant.count}")
    print("\ngateway statistics:")
    for key in ("requests_received", "requests_forwarded"):
        print(f"  {key:<24} {gateway.stats[key]}")
    report_figure3(world, gateway, "uniform LAN")

    # Make h0's broadcasts reach h2 later than the token does (it needs
    # 1.4 ms via h1): h2 no longer sees h0's copy in time to withdraw
    # its own, two copies cross on the ring, and the gateway drops one.
    world.network.latency_model.set_pair("demo-h0", "demo-h2", 0.003)
    print("\nslowing the demo-h0 <-> demo-h2 link, invoking increment(1) x3 ...")
    for _ in range(3):
        world.await_promise(counter.call("increment", 1))
    world.run(until=world.now + 0.1)
    report_figure3(world, gateway, "copies crossing")
    print("\n(3 replicas -> 3 responses per invocation: 1 delivered, the "
          "other 2 withdrawn at\n their sender or suppressed at the gateway "
          "— Figure 3 of the paper)")


def report_figure3(world, gateway, label):
    """Where each response copy computed so far ended up."""
    m = world.metrics
    print(f"\nFigure 3 accounting ({label}, cumulative):")
    for name, value in (
            ("generated", m.value("eternal.invocations.executed")),
            ("on the wire", m.value("gateway.resp.received")),
            ("delivered", gateway.stats["responses_delivered"]),
            ("withdrawn at sender", m.value("rm.copies.withdrawn")),
            ("suppressed at gateway", gateway.stats["duplicates_suppressed"])):
        print(f"  {name:<24} {value}")


if __name__ == "__main__":
    main()
