"""E16 (section 3.5 scaled out): the gateway farm under open-loop load.

One fault tolerance domain, fronted by a pool of 1/2/4/8 gateways
(:class:`repro.core.GatewayPool`): consistent-hash sharding of the
client population, pool-aware multi-profile IORs, per-gateway admission
windows, and circuit breakers.  The workload is the farm open loop of
``workloads.farm_open_loop`` — every arrival is its own *logical*
client (unique ``uid#incarnation``), 10^5 of them multiplexed over a
handful of client hosts and pooled TCP connections, with the whole
seeded arrival schedule injected through ``Scheduler.post_batch``
cohorts.

Two benches:

* ``test_farm_100k_single_gateway`` — the head-count test: 100 000
  logical clients through one gateway, heavy-tailed (bounded-Pareto)
  arrivals.  Proves the harness sustains the paper's "very large
  numbers of clients" regime in one process: every arrival is served
  or deliberately shed, none lost, and the identity bookkeeping holds
  100 000 distinct client ids over four connections.
* ``test_farm_scaling_curve`` — the capacity curve: the same offered
  load (10 000 arrivals/s for 2 simulated seconds) against pools of
  1, 2, 4 and 8 gateways.  Sustained throughput must grow >= 1.5x
  from 1 to 4 gateways; the shed rate falls as the pool widens.

Farm configuration (established empirically — see PERFORMANCE.md):
the Totem token quota is raised to 64 messages per visit so the ring's
flow control does not bind before the gateways do, and each gateway
runs a tight admission window (8 in flight, queue of 16) so the pool —
not the ring — is the measured bottleneck.
"""

import zlib

import pytest

from repro import (
    FaultToleranceDomain,
    FtClientLayer,
    GatewayPool,
    Orb,
    TotemConfig,
    World,
)

from common import counter_group
from workloads import farm_open_loop, percentiles, write_heavy

POOL_SIZES = (1, 2, 4, 8)
SCALING_ARRIVALS = 20_000
FARM_ARRIVALS = 100_000
HORIZON_S = 2.0          # offered load = arrivals / HORIZON_S per second
CLIENT_HOSTS = 4         # logical clients multiplex over this many hosts
ADMISSION_WINDOW = 8
ADMISSION_QUEUE = 16
TOKEN_QUOTA = 64         # Totem max_messages_per_token for farm runs


def build_farm(world, pool_size):
    domain = FaultToleranceDomain(
        world, "dom", num_hosts=3,
        totem_config=TotemConfig(max_messages_per_token=TOKEN_QUOTA))
    pool = GatewayPool(domain, size=pool_size,
                      admission_window=ADMISSION_WINDOW,
                      admission_queue_limit=ADMISSION_QUEUE)
    domain.await_stable()
    group = counter_group(domain)
    return domain, pool, group


def run_farm(pool_size, arrivals, interarrival="exponential",
             horizon_s=HORIZON_S):
    """Drive ``arrivals`` logical clients at a pool of ``pool_size``
    gateways; return one deterministic row of the scaling curve."""
    world = World(seed=4200 + pool_size)
    domain, pool, group = build_farm(world, pool_size)
    orbs = []
    for i in range(CLIENT_HOSTS):
        host = world.add_host(f"farmhost{i}")
        orbs.append(Orb(world, host, request_timeout=None))

    def make_stub(index):
        uid = f"farm/{index}"
        key = f"{uid}#1"
        # The farm dispatcher's admission-aware pick: exercises the
        # consistent-hash ring, breaker gating and least-connections
        # fallback for every arrival (the data path itself follows the
        # pool-aware IOR profile order below).
        pool.route(key)
        orb = orbs[zlib.crc32(uid.encode("utf-8")) % CLIENT_HOSTS]
        layer = FtClientLayer(orb, client_uid=uid)
        ior = pool.ior_for(group, key)
        return layer.string_to_object(ior.to_string(), group.interface,
                                      multiplexed=True)

    result = farm_open_loop(world, make_stub, arrivals,
                            arrivals / horizon_s, write_heavy, seed=7,
                            interarrival=interarrival)
    world.run(until=world.now + 0.5)
    snapshot = world.metrics.snapshot()

    def count(name):
        data = snapshot.get(name)
        return data["value"] if data else 0

    span = result["span"]
    served = result["served"]
    latency = percentiles(result["latencies"])
    row = {
        "pool_size": pool_size,
        "arrivals": arrivals,
        "served": served,
        "shed": result["shed"],
        "failed": result["failed"],
        "completion_span_s": round(span, 4),
        "sustained_tput_per_s": round(served / span, 1) if span else 0.0,
        "shed_rate": round(result["shed"] / arrivals, 4),
        "unroutable": count("pool.route.unroutable"),
        "unroutable_rate": round(
            count("pool.route.unroutable") / arrivals, 4),
        "route_owner": count("pool.route.owner"),
        "route_reroutes": count("pool.route.reroutes"),
        "route_fallback": count("pool.route.fallback"),
        "breaker_trips": count("pool.breaker.trips"),
        "breaker_closes": count("pool.breaker.closes"),
        "iors_issued": count("pool.ior.issued"),
        "batched_posts": count("sched.post.batched"),
        "batched_deliveries": count("totem.broadcast.batched_deliveries"),
        "logical_clients": sum(
            len(members) for gw in pool.gateways
            for members in gw._conn_clients.values()),
        "client_connections": sum(
            gw.stats["clients_connected"] for gw in pool.gateways),
        "lat_p50_s": latency.get("p50", 0.0),
        "lat_p95_s": latency.get("p95", 0.0),
        "lat_p99_s": latency.get("p99", 0.0),
    }
    return row


def test_farm_100k_single_gateway(benchmark):
    row = benchmark.pedantic(
        run_farm, args=(1, FARM_ARRIVALS),
        kwargs={"interarrival": "pareto"}, rounds=1, iterations=1)
    # Conservation: every one of the 10^5 arrivals is either served or
    # deliberately shed by admission control — never silently lost and
    # never failed with anything but the TRANSIENT shed.
    assert row["served"] + row["shed"] == row["arrivals"]
    assert row["failed"] == 0
    assert row["served"] > 1_000
    # Identity multiplexing: 10^5 distinct logical client ids arrive
    # over a handful of pooled TCP connections.
    assert row["logical_clients"] == FARM_ARRIVALS
    assert row["client_connections"] == CLIENT_HOSTS
    # The bulk paths actually carried the load: post_batch at the
    # arrival injector (batched_posts counts those arrivals alone), and
    # the Totem fan-out's one event per delay group (batched_deliveries
    # counts its per-target deliveries).
    assert row["batched_posts"] > 0
    assert row["batched_deliveries"] > 0
    benchmark.extra_info.update(row)


def test_farm_scaling_curve(benchmark):
    def run():
        return {k: run_farm(k, SCALING_ARRIVALS) for k in POOL_SIZES}

    curve = benchmark.pedantic(run, rounds=1, iterations=1)
    for k, row in curve.items():
        assert row["served"] + row["shed"] == row["arrivals"], k
        assert row["failed"] == 0, k
        assert row["served"] > 0, k
    # The acceptance bar: >= 1.5x sustained throughput at 4 gateways
    # vs 1 under identical offered load.
    tput = {k: curve[k]["sustained_tput_per_s"] for k in POOL_SIZES}
    assert tput[4] >= 1.5 * tput[1], tput
    # Widening the pool monotonically reduces the shed (lost-load) rate.
    assert curve[8]["shed_rate"] < curve[1]["shed_rate"]
    for k, row in curve.items():
        benchmark.extra_info.update(
            {f"k{k}_{field}": row[field]
             for field in ("served", "shed", "shed_rate", "unroutable_rate",
                           "completion_span_s", "sustained_tput_per_s",
                           "lat_p95_s")})
    benchmark.extra_info["speedup_4v1"] = round(tput[4] / tput[1], 3)
    benchmark.extra_info["speedup_8v1"] = round(tput[8] / tput[1], 3)
