"""``python -m repro`` — a self-contained demonstration run.

Builds the paper's Figure 3 scenario (unreplicated client, gateway,
actively replicated server), injects a gateway failover, and prints a
domain status report.  Useful as a smoke test of an installation.

``--metrics`` appends the world's metrics registry after the report;
``--metrics-json`` prints the canonical JSON snapshot instead of the
table (byte-identical across runs of the same seed); ``--audit`` runs
the resource-leak audit at quiescence and fails the run on any leak;
``--trace`` enables causal tracing and prints the span tree of every
invocation; ``--trace-json`` prints the Chrome ``trace_event`` JSON
instead (load it in Perfetto / ``about:tracing``, or feed it to
``tools/trace_report.py`` for a critical-path breakdown);
``--series`` arms the time-series registry and prints its canonical
JSON snapshot (per-group/gateway windowed aggregates, see
docs/OBSERVABILITY.md); ``--flight-dump`` arms the flight recorder
and prints its canonical JSON black-box dump after the run.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro import FaultToleranceDomain, FtClientLayer, Orb, ReplicationStyle, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.eternal import domain_report, format_report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="demonstration run: gateway failover over a "
                    "fault tolerance domain")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics registry after the report")
    parser.add_argument("--metrics-json", action="store_true",
                        help="print the canonical JSON metrics snapshot")
    parser.add_argument("--audit", action="store_true",
                        help="run the resource-leak audit at quiescence; "
                             "a leak fails the run")
    parser.add_argument("--trace", action="store_true",
                        help="record causal traces and print the span tree")
    parser.add_argument("--trace-json", action="store_true",
                        help="record causal traces and print Chrome "
                             "trace_event JSON (Perfetto-loadable)")
    parser.add_argument("--series", action="store_true",
                        help="arm the time-series registry and print its "
                             "canonical JSON snapshot after the run")
    parser.add_argument("--flight-dump", action="store_true",
                        help="arm the flight recorder and print its "
                             "canonical JSON dump after the run")
    parser.add_argument("--seed", type=int, default=2026,
                        help="world seed (default: 2026)")
    args = parser.parse_args(argv)
    tracing = args.trace or args.trace_json
    world = World(seed=args.seed, trace_spans=tracing, series=args.series,
                  flight=args.flight_dump)
    domain = FaultToleranceDomain(world, "demo", num_hosts=3)
    domain.add_gateway(port=2809)
    domain.add_gateway(port=2809)
    group = domain.create_group("Counter", COUNTER_INTERFACE, CounterServant,
                                style=ReplicationStyle.ACTIVE)
    domain.await_stable()

    browser = world.add_host("browser")
    orb = Orb(world, browser, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="demo-client")
    stub = layer.string_to_object(domain.ior_for(group).to_string(),
                                  COUNTER_INTERFACE)

    print("repro demo: gateway to a fault tolerance domain\n")
    for i in range(3):
        value = world.await_promise(stub.call("increment", 1), timeout=600)
        print(f"  increment -> {value}")

    print("\ncrashing the first gateway; continuing through the second ...")
    world.faults.crash_now(domain.gateways[0].host.name)
    for i in range(2):
        value = world.await_promise(stub.call("increment", 1), timeout=600)
        print(f"  increment -> {value}")
    world.run(until=world.now + 0.5)

    print("\n" + format_report(domain_report(domain)))
    expected = 5
    values = {rm.replicas[group.group_id].servant.count
              for rm in domain.rms.values()
              if group.group_id in rm.replicas}
    ok = values == {expected}
    print(f"\nreplica agreement: {'OK' if ok else 'BROKEN'} (values={values})")
    if args.audit:
        report = world.audit()
        print("\n" + report.render())
        ok = ok and report.ok
    if args.metrics:
        print("\nmetrics registry:")
        print(world.metrics_report())
    if args.metrics_json:
        print(world.metrics_json())
    if args.trace:
        print("\ncausal traces:")
        print(world.trace_tree())
    if args.trace_json:
        print(world.trace_chrome_json())
    if args.series:
        print(world.series_json())
    if args.flight_dump:
        print(world.flight_json())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
