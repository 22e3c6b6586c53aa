#!/usr/bin/env python
"""Sections 3.4 vs 3.5, side by side: what a gateway crash does to a
plain year-2000 ORB client versus an enhanced client.

Scenario (identical in both runs): the client sends an invocation; the
gateway crashes at the exact moment the replicated server's response
reaches it — the invocation has EXECUTED inside the domain, but the
reply never escapes.

* **Plain client** (section 3.4): COMM_FAILURE; the invocation's fate
  is unknown; a naive application retry through a second gateway
  re-executes the operation and corrupts server state.
* **Enhanced client** (section 3.5): the thin interception layer skips
  to the next IOR profile — on the standby connection it has kept open
  to it since it bound — and reissues with the same client id and
  request id; the domain's duplicate detection returns the original
  response — no loss, no duplication, no application involvement.  The
  outage the client sees is close detection + reissue + reply (0.164 s
  from issuing the request); having to reconnect first, as a client
  without a usable standby must, makes it 0.244 s.

Run:  python examples/gateway_failover.py
"""

from repro import (
    CommFailure,
    FaultToleranceDomain,
    FtClientLayer,
    Orb,
    ReplicationStyle,
    World,
)
from repro.apps import COUNTER_INTERFACE, CounterServant


def build(world, mirror):
    domain = FaultToleranceDomain(world, "dom", num_hosts=3)
    domain.add_gateway(port=2809, mirror_requests=mirror)
    domain.add_gateway(port=2809, mirror_requests=mirror)
    group = domain.create_group("Counter", COUNTER_INTERFACE, CounterServant,
                                style=ReplicationStyle.ACTIVE)
    domain.await_stable()
    return domain, group


def crash_gateway_on_response(world, gateway):
    """Crash the gateway the instant the next domain response hits it."""
    def crash_instead(_msg):
        world.faults.crash_now(gateway.host.name)
    gateway._on_domain_response = crash_instead


def replica_value(domain, group):
    for rm in domain.rms.values():
        record = rm.replicas.get(group.group_id)
        if record is not None and rm.alive:
            return record.servant.count
    return None


def run_plain():
    print("=" * 64)
    print("PLAIN CLIENT, section 3.4 (isolated gateways, first profile only)")
    print("=" * 64)
    world = World(seed=1)
    domain, group = build(world, mirror=False)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    stub = orb.string_to_object(
        domain.ior_for(group, first_gateway_only=True).to_string(),
        COUNTER_INTERFACE)
    print("increment(1) ->", world.await_promise(stub.call("increment", 1)))

    crash_gateway_on_response(world, domain.gateways[0])
    promise = stub.call("increment", 10)
    try:
        world.await_promise(promise, timeout=240)
    except CommFailure as exc:
        print(f"increment(10) -> COMM_FAILURE ({exc})")
    world.run(until=world.now + 1.0)
    print(f"  ... but the domain executed it anyway: replicas hold "
          f"{replica_value(domain, group)} (client cannot know)")

    print("application retries through the surviving gateway:")
    retry_orb = Orb(world, world.add_host("browser2"), request_timeout=None)
    retry = retry_orb.string_to_object(domain.ior_for(group).to_string(),
                                       COUNTER_INTERFACE)
    world.await_promise(retry.call("increment", 10), timeout=240)
    print(f"  replicas now hold {replica_value(domain, group)} "
          "(DUPLICATE EXECUTION: 1 + 10 + 10 = 21)")


def run_enhanced():
    print()
    print("=" * 64)
    print("ENHANCED CLIENT, section 3.5 (gateway group + interception layer)")
    print("=" * 64)
    world = World(seed=1)
    domain, group = build(world, mirror=True)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="customer/demo")
    stub = layer.string_to_object(domain.ior_for(group).to_string(),
                                  COUNTER_INTERFACE)
    print("increment(1) ->", world.await_promise(stub.call("increment", 1)))

    crash_gateway_on_response(world, domain.gateways[0])
    issued = world.now
    result = world.await_promise(stub.call("increment", 10), timeout=240)
    print(f"increment(10) -> {result}  (transparent failover; the reissue "
          "was recognised, not re-executed)")
    promoted = stub.requester.stats["standby_promotions"]
    print(f"  answered {world.now - issued:.3f}s after it was issued: close "
          f"detection, reissue, reply ({promoted} standby promotion; the "
          "cold path — reconnect first — takes 0.244s)")
    world.run(until=world.now + 1.0)
    print(f"  replicas hold {replica_value(domain, group)} (1 + 10 = 11: "
          "exactly once)")
    for when, address in layer.failover_log:
        print(f"  failover at t={when:.3f}s -> gateway {address}")


if __name__ == "__main__":
    run_plain()
    run_enhanced()
