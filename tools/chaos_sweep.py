#!/usr/bin/env python
"""Exhaustive single- and double-fault sweep over the gateway scenario.

Usage:
    python tools/chaos_sweep.py [--double] [--grid-ms 10] [--ops 4]

For every processor of a standard domain (4 replica hosts, 2 gateways)
and every crash instant on a time grid, runs the fixed enhanced-client
workload and checks the exactly-once invariants.  With ``--double``,
additionally sweeps ordered pairs of faults (victim A at t1, victim B
at t2 > t1) — quadratic, so expect a few minutes.

A third sweep aims at the idle token: at every instant of the grid it
waits for the token to come to rest and then crashes the processor it
is parked at, or cuts that processor — or its ring successor, which the
next keep-alive rotation must reach — off from all the others for good.

Prints a summary and exits non-zero if any scenario violated an
invariant.  Every world runs with the flight recorder armed (it is
purely passive, so arming it never perturbs the schedule); a failing
scenario dumps its black box — the last high-signal events before the
violation — as deterministic canonical JSON to
``flight-<scenario>.json`` (``--flight-dir``, default the current
directory), which CI uploads as an artifact.  This is the campaign
behind ``tests/test_chaos_sweep.py``'s bounded grid.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
import time

sys.path.insert(0, "src")

from repro import FtClientLayer, Orb, World  # noqa: E402
from repro.apps import COUNTER_INTERFACE, CounterServant  # noqa: E402
from repro.eternal import FaultToleranceDomain, ReplicationStyle  # noqa: E402


def build(seed):
    world = World(seed=seed, flight=True)
    domain = FaultToleranceDomain(world, "dom", num_hosts=4)
    domain.add_gateway(port=2809)
    domain.add_gateway(port=2809)
    domain.await_stable()
    group = domain.create_group("Counter", COUNTER_INTERFACE, CounterServant,
                                style=ReplicationStyle.ACTIVE,
                                num_replicas=3, min_replicas=2)
    domain.await_ready(group)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="chaos")
    stub = layer.string_to_object(domain.ior_for(group).to_string(),
                                  COUNTER_INTERFACE)
    return world, domain, group, stub


#: Faults aimed at the parked token instead of at a fixed victim.
PARKED_FAULTS = ("crash-holder", "cut-holder", "cut-successor")


def run(faults, operations, seed=5, audit=False):
    """faults: list of (victim host name index, delay seconds); in place
    of an index, one of ``PARKED_FAULTS`` strikes at the first moment
    from ``delay`` on at which the idle token is parked.

    Returns ``(ok, detail, world)`` — the world so a failing caller can
    dump its flight recorder.  With ``audit=True`` the scenario
    additionally runs the world's resource-leak audit at quiescence
    (see repro.obs.audit) and fails if any live component holds state
    above its declared floor."""
    world, domain, group, stub = build(seed)
    ok, detail = _run_checks(world, domain, group, stub, faults,
                             operations, audit)
    return ok, detail, world


def _run_checks(world, domain, group, stub, faults, operations, audit):
    victims = [h.name for h in domain.hosts]
    gateway_hosts = {gw.host.name for gw in domain.gateways}
    crashed, cut_off = set(), set()

    def strike(fault):
        if fault not in PARKED_FAULTS:
            crashed.add(victims[fault % len(victims)])
            world.faults.crash_now(victims[fault % len(victims)])
            return
        holder = next((name for name, member in domain.members.items()
                       if member.parked and name not in cut_off), None)
        if holder is None:    # moving, or the ring is reforming: next hop
            world.scheduler.call_after(0.0007, strike, fault)
        elif fault == "crash-holder":
            crashed.add(holder)
            world.faults.crash_now(holder)
        else:
            ring = domain.members[holder].members
            victim = (holder if fault == "cut-holder"
                      else ring[(ring.index(holder) + 1) % len(ring)])
            cut_off.add(victim)
            world.flight.record("flight.fault", action="partition",
                                target=victim)
            world.network.partition(
                {victim}, {name for name in victims if name != victim})

    def connected_counts():
        counts = set()
        for host_name, rm in domain.rms.items():
            record = rm.replicas.get(group.group_id)
            if (record is not None and rm.alive and record.ready
                    and host_name not in cut_off):
                counts.add(record.servant.count)
        return counts

    for fault, delay in faults:
        world.scheduler.call_after(delay, strike, fault)
    results = []
    try:
        for _ in range(operations):
            results.append(world.await_promise(stub.call("increment", 1),
                                               timeout=600))
    except Exception as exc:
        if gateway_hosts <= crashed or gateway_hosts & cut_off:
            # With every gateway dead, a clean COMM_FAILURE is the
            # *correct* outcome (no entry point remains), and so is a
            # TRANSIENT from a gateway cut off from every replica —
            # provided the domain itself stayed consistent.
            world.run(until=world.now + 2.0)
            if len(connected_counts()) <= 1:
                if audit:
                    leak = _audit_detail(world)
                    if leak is not None:
                        return False, leak
                return True, "no gateway into the domain: clean failure"
        return False, f"client error: {type(exc).__name__}: {exc}"
    world.run(until=world.now + 2.0)
    counts = connected_counts()
    if results != list(range(1, operations + 1)):
        return False, f"results {results}"
    if counts != {operations}:
        return False, f"replica divergence {counts}"
    if audit:
        leak = _audit_detail(world)
        if leak is not None:
            return False, leak
    return True, "ok"


def _dump_flight(world, scenario, flight_dir):
    """Write the failing scenario's black box; return the path."""
    slug = re.sub(r"[^a-z0-9]+", "-", scenario.lower()).strip("-")
    path = os.path.join(flight_dir, f"flight-{slug}.json")
    os.makedirs(flight_dir, exist_ok=True)
    with open(path, "w") as f:
        f.write(world.flight_json())
        f.write("\n")
    return path


def _audit_detail(world):
    """None when the audit is clean, else a one-line leak description."""
    report = world.audit()
    if report.ok:
        return None
    return "resource leak: " + "; ".join(
        f"{row.owner}/{row.name} size={row.size} > floor={row.floor}"
        for row in report.violations)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--double", action="store_true",
                        help="also sweep ordered fault pairs")
    parser.add_argument("--grid-ms", type=int, default=50)
    parser.add_argument("--ops", type=int, default=4)
    parser.add_argument("--audit", action="store_true",
                        help="also run the resource-leak audit at "
                             "quiescence of every scenario")
    parser.add_argument("--flight-dir", default=".",
                        help="directory for flight-<scenario>.json dumps "
                             "of failing scenarios (default: .)")
    args = parser.parse_args()

    grid = [t / 1000.0 for t in range(10, 600, args.grid_ms)]
    processors = 6  # 4 replica hosts + 2 gateways
    failures = []
    started = time.time()
    total = 0

    def attempt(name, faults):
        nonlocal total
        total += 1
        ok, detail, world = run(faults, args.ops, audit=args.audit)
        if not ok:
            dump = _dump_flight(world, name, args.flight_dir)
            failures.append((name, f"{detail} [flight: {dump}]"))

    print(f"single-fault sweep: {processors} victims x {len(grid)} instants")
    for index, delay in itertools.product(range(processors), grid):
        attempt(f"single victim={index} t={delay}", [(index, delay)])

    print(f"parked-token sweep: {len(PARKED_FAULTS)} faults x "
          f"{len(grid)} instants")
    for fault, delay in itertools.product(PARKED_FAULTS, grid):
        attempt(f"parked {fault} t={delay}", [(fault, delay)])

    if args.double:
        print("double-fault sweep (this takes a while) ...")
        for (i1, t1), (i2, t2) in itertools.product(
                itertools.product(range(processors), grid[::2]), repeat=2):
            if t2 <= t1 or i1 == i2:
                continue
            attempt(f"double ({i1}@{t1}, {i2}@{t2})", [(i1, t1), (i2, t2)])

    elapsed = time.time() - started
    print(f"\n{total} scenarios in {elapsed:.1f}s wall; "
          f"{len(failures)} invariant violations")
    for name, detail in failures[:20]:
        print(f"  FAIL {name}: {detail}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
