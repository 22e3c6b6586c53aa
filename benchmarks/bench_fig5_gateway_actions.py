"""E5 (Figure 5): the gateway's per-message action loops.

Figure 5 lists what the gateway does per incoming IIOP message (obtain
client id, map socket, generate identifiers, build header, multicast)
and per incoming multicast (extract identifier, dedup, find socket,
forward reply).  This benchmark measures:

* wall-clock throughput of a full client-request -> reply cycle through
  the gateway (both loops exercised, plus ORB + Totem + RM underneath);
* the simulated per-request latency an external client observes;
* gateway bookkeeping counts proving each Figure 5 step ran.
"""

from repro import World

from common import build_domain, counter_group, external_stub

BATCH = 25


def build():
    world = World(seed=11, trace=False)
    domain = build_domain(world, gateways=1)
    group = counter_group(domain)
    stub, _ = external_stub(world, domain, group, enhanced=False)
    world.await_promise(stub.call("increment", 1), timeout=600)  # warm up
    return world, domain, stub


def test_fig5_request_reply_cycle_throughput(benchmark):
    """Wall-clock cost per complete request/reply through the gateway."""
    world, domain, stub = build()
    state = {"n": 0}

    def one_cycle():
        state["n"] += 1
        world.await_promise(stub.call("increment", 1), timeout=600)

    benchmark(one_cycle)
    gateway = domain.gateways[0]
    assert gateway.stats["requests_forwarded"] == gateway.stats["requests_received"]
    benchmark.extra_info["requests_processed"] = gateway.stats["requests_received"]


def test_fig5_simulated_client_latency(benchmark):
    def run():
        world, domain, stub = build()
        t0 = world.now
        for _ in range(BATCH):
            world.await_promise(stub.call("increment", 1), timeout=600)
        per_request = (world.now - t0) / BATCH
        return {
            "simulated_latency_s": round(per_request, 5),
            # Two WAN hops (client->gw, gw->client) bound the latency
            # from below; the domain adds about one token rotation.
            "wan_floor_s": 0.080,
        }

    row = benchmark.pedantic(run, rounds=2, iterations=1)
    assert row["simulated_latency_s"] >= row["wan_floor_s"]
    assert row["simulated_latency_s"] < 3 * row["wan_floor_s"]
    benchmark.extra_info.update(row)


def test_fig5_pipelined_requests_throughput(benchmark):
    """Clients may pipeline: many requests in flight on one connection.
    Simulated completion time per request drops well below the RTT."""

    def run():
        world, domain, stub = build()
        t0 = world.now
        promises = [stub.call("increment", 1) for _ in range(BATCH)]
        world.run_until_done(promises, timeout=600)
        return {"pipelined_latency_s": round((world.now - t0) / BATCH, 5)}

    row = benchmark.pedantic(run, rounds=2, iterations=1)
    assert row["pipelined_latency_s"] < 0.080  # beats one WAN RTT each
    benchmark.extra_info.update(row)


def test_fig5_gateway_action_counters(benchmark):
    """Every Figure 5 action leaves a countable trace."""

    def run():
        world, domain, stub = build()
        for _ in range(10):
            world.await_promise(stub.call("increment", 1), timeout=600)
        world.run(until=world.now + 0.5)
        return dict(domain.gateways[0].stats,
                    responses_received=world.metrics.value(
                        "gateway.resp.received"),
                    withdrawn_at_sender=world.metrics.value(
                        "rm.copies.withdrawn"))

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats["requests_received"] == 11      # warm-up + 10
    assert stats["requests_forwarded"] == 11
    assert stats["responses_delivered"] == 11
    # "Extract identifier, dedup" ran on every copy that reached the
    # ring; of the 2 redundant copies per request (3 replicas) the ones
    # withdrawn at their sender never did.
    assert stats["responses_received"] == (
        stats["responses_delivered"] + stats["duplicates_suppressed"])
    assert (stats["withdrawn_at_sender"]
            + stats["duplicates_suppressed"]) == 22
    assert stats["clients_connected"] == 1
    benchmark.extra_info.update({k: v for k, v in stats.items() if v})
