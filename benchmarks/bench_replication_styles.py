"""E9/E17 (section 2, ablation): replication styles compared.

The paper's fault tolerance properties include the replication style
(stateless / cold passive / warm passive / active / active+voting, and
the semi-active leader-follower engine).  This ablation quantifies the
classic trade-off on identical workloads:

* steady-state cost: messages multicast per operation (the
  ``broadcasts_per_op`` column: ``totem.msg.sent``, not datagrams —
  where the flow-control quota is raised a Totem frame holds several
  messages of one token visit, and the datagram count then says how
  requests overlapped, not what a style costs)
  and executions per operation (active executes at n replicas, passive
  at 1);
* failover cost: simulated time from primary/replica crash until the
  next invocation completes, and how much replay it needed.

Expected shape: ACTIVE pays n executions but fails over instantly
(surviving replicas already have the state); WARM_PASSIVE ships its
state with every reply (bytes, not a message) and fails over quickly;
COLD_PASSIVE is cheapest in steady state and slowest to fail over
(checkpoint restore + log replay);
LEADER_FOLLOWER executes everywhere like ACTIVE (instant failover, no
replay) but multicasts only the leader's response.

E17 adds the runtime dimension: client-observed p50 latency of
leader-follower vs active-with-voting through a gateway (voting waits
for a majority; the leader answers alone), and a live ACTIVE ->
LEADER_FOLLOWER switch under in-flight traffic proving, from the
gateway's duplicate-suppression counters, that no invocation is lost
or duplicated across the style cut.
"""

import pytest

from repro import ReplicationStyle, World

from common import build_domain, counter_group, external_stub

STYLES = [
    ReplicationStyle.ACTIVE,
    ReplicationStyle.WARM_PASSIVE,
    ReplicationStyle.COLD_PASSIVE,
    ReplicationStyle.LEADER_FOLLOWER,
]
OPERATIONS = 12


def run_steady_state(style):
    world = World(seed=90, trace=False)
    domain = build_domain(world, num_hosts=4, gateways=0)
    group = counter_group(domain, style=style, replicas=3,
                          checkpoint_interval=4)
    world.await_promise(group.invoke("increment", 1), timeout=600)
    sent = lambda: world.metrics.value("totem.msg.sent")
    before_messages = sent()
    before_execs = sum(rm.stats["invocations_executed"]
                       for rm in domain.rms.values())
    for _ in range(OPERATIONS):
        world.await_promise(group.invoke("increment", 1), timeout=600)
    world.run(until=world.now + 0.5)
    execs = sum(rm.stats["invocations_executed"]
                for rm in domain.rms.values()) - before_execs
    return {
        "style": style.value,
        "broadcasts_per_op": round(
            (sent() - before_messages) / OPERATIONS, 2),
        "executions_per_op": round(execs / OPERATIONS, 2),
    }


def run_failover(style):
    world = World(seed=91, trace=False)
    domain = build_domain(world, num_hosts=4, gateways=0)
    # Interval of 5 leaves a non-empty log suffix after 12 operations
    # (checkpoints at 5 and 10), so cold-passive failover must replay.
    group = counter_group(domain, style=style, replicas=3, min_replicas=2,
                          checkpoint_interval=5)
    for _ in range(OPERATIONS):
        world.await_promise(group.invoke("increment", 1), timeout=600)
    world.run(until=world.now + 0.2)
    info = group.info()
    victim = info.primary(domain.coordinator_rm().live_hosts)
    t0 = world.now
    world.faults.crash_now(victim)
    value = world.await_promise(group.invoke("increment", 1), timeout=600)
    failover = world.now - t0
    replays = sum(rm.stats["replays"] for rm in domain.rms.values())
    return {
        "style": style.value,
        "failover_latency_s": round(failover, 4),
        "replayed_ops": replays,
        "state_correct": value == OPERATIONS + 1,
    }


@pytest.mark.parametrize("style", STYLES, ids=lambda s: s.value)
def test_styles_steady_state_cost(benchmark, style):
    row = benchmark.pedantic(run_steady_state, args=(style,), rounds=2,
                             iterations=1)
    benchmark.extra_info.update(row)
    if style.executes_everywhere:
        assert row["executions_per_op"] == 3.0       # every replica executes
    else:
        assert row["executions_per_op"] == 1.0       # primary only
    if style.is_passive:
        # Invocation + response: the state update / checkpoint rides
        # the response, so a passive style costs what active does.
        assert row["broadcasts_per_op"] == 2.0
    if style is ReplicationStyle.LEADER_FOLLOWER:
        # Hot execution without the redundant response multicasts.
        assert row["executions_per_op"] == 3.0


@pytest.mark.parametrize("style", STYLES, ids=lambda s: s.value)
def test_styles_failover(benchmark, style):
    row = benchmark.pedantic(run_failover, args=(style,), rounds=2,
                             iterations=1)
    benchmark.extra_info.update(row)
    assert row["state_correct"]
    if style.executes_everywhere:
        assert row["replayed_ops"] == 0              # nothing to replay
    if style is ReplicationStyle.COLD_PASSIVE:
        assert row["replayed_ops"] >= 1              # log suffix replayed


def test_styles_comparison_table(benchmark):
    """One row per style — the E9 summary table."""

    def run():
        return {style.value: {**run_steady_state(style), **run_failover(style)}
                for style in STYLES}

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    active = table["active"]
    cold = table["cold_passive"]
    lf = table["leader_follower"]
    # Shapes: active executes 3x more, cold replays more at failover.
    assert active["executions_per_op"] > cold["executions_per_op"]
    assert cold["replayed_ops"] >= active["replayed_ops"]
    # Leader-follower keeps active's hot state (same executions, zero
    # replay) while multicasting fewer responses per operation.
    assert lf["executions_per_op"] == active["executions_per_op"]
    assert lf["replayed_ops"] == 0
    assert lf["broadcasts_per_op"] <= active["broadcasts_per_op"]
    for style, row in table.items():
        benchmark.extra_info[style] = row


# ======================================================================
# E17: leader-follower vs voting latency, and the live style switch
# ======================================================================

def run_gateway_latency(style, replicas=3):
    """Client-observed latency through a gateway for ``style``.

    The gateway path is where the styles differ for the *client*: a
    voting group withholds each response until a majority of replica
    responses agree — one token hop after the ring-first replica's
    response — while a leader-follower group answers with the leader's
    single response.  The operations are issued as one concurrent
    burst and each completion is stamped client-side from the
    simulated clock (the latency histogram's buckets are coarser than
    a token hop, so quantiles from it would hide the difference); a
    non-trivial token hold keeps successive replica responses on
    distinct simulated instants.
    """
    import statistics

    from repro import TotemConfig
    world = World(seed=92, trace=False)
    domain = build_domain(world, num_hosts=5, gateways=1,
                          totem_config=TotemConfig(
                              token_hold=0.005, token_loss_timeout=0.12,
                              gather_timeout=0.02))
    group = counter_group(domain, style=style, replicas=replicas)
    stub, _ = external_stub(world, domain, group, enhanced=False)
    t0 = world.now
    promises = [stub.call("increment", 1) for _ in range(OPERATIONS)]
    latencies = []
    for promise in promises:
        world.scheduler.run_until(lambda p=promise: p.done, timeout=600)
        latencies.append(world.now - t0)
    world.run(until=world.now + 0.5)
    latencies.sort()
    return {
        "style": style.value,
        "p50_latency_s": round(statistics.median(latencies), 6),
        "p95_latency_s": round(latencies[int(0.95 * len(latencies))], 6),
    }


def test_styles_lf_vs_voting_latency(benchmark):
    """E17 headline: leader-follower p50 beats active-with-voting."""

    def run():
        return {
            "leader_follower": run_gateway_latency(
                ReplicationStyle.LEADER_FOLLOWER),
            "active_with_voting": run_gateway_latency(
                ReplicationStyle.ACTIVE_WITH_VOTING),
        }

    rows = benchmark.pedantic(run, rounds=2, iterations=1)
    lf, voting = rows["leader_follower"], rows["active_with_voting"]
    benchmark.extra_info["lf_p50_latency_s"] = lf["p50_latency_s"]
    benchmark.extra_info["voting_p50_latency_s"] = voting["p50_latency_s"]
    benchmark.extra_info["p50_speedup"] = round(
        voting["p50_latency_s"] / lf["p50_latency_s"], 2)
    # The leader answers alone; the voter waits for a majority.
    assert lf["p50_latency_s"] < voting["p50_latency_s"]


def run_live_switch():
    """ACTIVE -> LEADER_FOLLOWER switch with traffic in flight.

    Returns delivery accounting from the gateway's duplicate-suppression
    counters: every operation must reach the client exactly once, as a
    normal delivery or a vote-relaxation flush — never both.
    """
    world = World(seed=93, trace=False)
    domain = build_domain(world, num_hosts=4, gateways=1)
    group = counter_group(domain, style=ReplicationStyle.ACTIVE, replicas=3)
    gateway = domain.gateways[0]
    stub, _ = external_stub(world, domain, group, enhanced=False)
    promises = [stub.call("increment", 1) for _ in range(OPERATIONS)]
    world.run(until=world.now + 0.02)        # traffic on the ring
    domain.switch_style(group, ReplicationStyle.LEADER_FOLLOWER)
    world.run_until_done(promises, timeout=600)
    world.run(until=world.now + 0.5)
    values = sorted(p.value for p in promises)
    t0 = world.now
    world.await_promise(stub.call("increment", 1), timeout=600)
    return {
        "ops": OPERATIONS,
        "delivered": gateway.stats["responses_delivered"]
        + gateway.stats["votes_relaxed"],
        "duplicates_to_client": 0 if values == list(
            range(1, OPERATIONS + 1)) else -1,
        "post_switch_latency_s": round(world.now - t0, 6),
        "style_switches": sum(rm.stats["style_switches"]
                              for rm in domain.rms.values()),
    }


def test_styles_live_switch_exactly_once(benchmark):
    """E17: the STYLE_SWITCH quiesce point loses and duplicates nothing."""
    row = benchmark.pedantic(run_live_switch, rounds=2, iterations=1)
    benchmark.extra_info.update(row)
    assert row["delivered"] == row["ops"] + 1    # + the post-switch probe
    assert row["duplicates_to_client"] == 0
    assert row["style_switches"] >= 1
