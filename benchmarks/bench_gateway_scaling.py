"""E10 (section 3.2): one gateway multiplexing many TCP clients.

The gateway keeps one spawned socket and one counter-assigned client id
per external client; routing uses (destination group, source group,
TCP client id) collectively.  This benchmark sweeps the number of
concurrent clients and reports:

* simulated completion time for a fixed total workload (the shape:
  concurrency amortises WAN latency until the total-order ring
  serialises everything);
* bookkeeping correctness at scale: distinct client ids, per-client
  response routing, zero misdeliveries.
"""

import pytest

from repro import World

from common import build_domain, counter_group, external_stub

TOTAL_REQUESTS = 24


def run_clients(num_clients, trace_spans=False, series=False):
    """Run the fixed workload; ``trace_spans`` turns on causal tracing
    (used by ``tools/bench_compare.py --trace-overhead`` to measure the
    instrumentation cost against the default untraced run) and
    ``series`` arms the time-series registry the same way for
    ``--series-overhead``.  Neither may change the returned simulated
    row; the enabled series snapshot is exposed out-of-band as
    ``run_clients.last_series`` so the overhead gate can report per-group
    latency aggregates without perturbing the comparison."""
    world = World(seed=1000 + num_clients, trace=False,
                  trace_spans=trace_spans, series=series)
    domain = build_domain(world, gateways=1)
    group = counter_group(domain)
    stubs = []
    for i in range(num_clients):
        stub, _ = external_stub(world, domain, group, enhanced=False,
                                host_name=f"client{i}")
        stubs.append(stub)
    per_client = TOTAL_REQUESTS // num_clients
    t0 = world.now
    promises = []

    def issue_chain(stub, remaining):
        """Each client works sequentially: next request on completion."""
        promise = stub.call("increment", 1)
        promises.append(promise)
        if remaining > 1:
            promise.on_done(lambda _p: issue_chain(stub, remaining - 1))

    for stub in stubs:
        issue_chain(stub, per_client)
    world.scheduler.run_until(
        lambda: len(promises) == TOTAL_REQUESTS and
        all(p.done for p in promises), timeout=600)
    elapsed = world.now - t0
    world.run(until=world.now + 0.5)
    gateway = domain.gateways[0]
    run_clients.last_series = (world.series.snapshot(world.now)
                               if series else None)
    results = sorted(p.result() for p in promises)
    return {
        "clients": num_clients,
        "total_requests": len(promises),
        "simulated_completion_s": round(elapsed, 4),
        "distinct_client_ids": len({
            cid for carried in gateway._conn_clients.values()
            for cid in carried}),
        "responses_delivered": gateway.stats["responses_delivered"],
        "responses_unroutable": gateway.stats["responses_unroutable"],
        "serializable": results == list(range(1, len(promises) + 1)),
    }


@pytest.mark.parametrize("clients", [1, 2, 4, 8])
def test_gateway_scaling_clients(benchmark, clients):
    row = benchmark.pedantic(run_clients, args=(clients,), rounds=1,
                             iterations=1)
    assert row["distinct_client_ids"] == clients
    assert row["responses_delivered"] == row["total_requests"]
    assert row["responses_unroutable"] == 0
    assert row["serializable"]  # the total order serialised all updates
    benchmark.extra_info.update(row)


def test_gateway_scaling_concurrency_amortises_latency(benchmark):
    def run():
        return {n: run_clients(n)["simulated_completion_s"] for n in (1, 8)}

    latencies = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {f"completion_{k}_clients_s": v for k, v in latencies.items()})
    # 8 clients issue the same total workload concurrently: wall-clock
    # (simulated) completion must drop substantially vs 1 client.
    assert latencies[8] < latencies[1] * 0.7
