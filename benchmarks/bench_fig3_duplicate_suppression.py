"""E3 (Figure 3): duplicate response suppression.

The paper's claim: an actively replicated server of degree *n* computes
*n* responses to each invocation; the unreplicated client must receive
exactly one.  The operation identifier in the Figure 4 header makes a
copy recognisable as a duplicate anywhere it is seen, and this
reproduction uses that in two places:

* **at the sender** — a replica whose copy is still in its Totem send
  queue when a sibling's identical copy is delivered withdraws it
  (the optimisation: that copy never costs a broadcast);
* **at the gateway** — every copy that does reach the ring passes the
  gateway's ``DuplicateSuppressor``, which delivers one and drops the
  rest (the guarantee: Figure 3 proper, unchanged).

The benchmark sweeps the replication degree on a uniform LAN (the first
replica the token visits speaks, the rest withdraw), then repeats
degree 3 with one sibling link slower than the token's path so two
copies cross on the ring, and with ACTIVE_WITH_VOTING, which keeps
every copy for its majority.  Per row it reports responses generated /
on the wire / delivered / withdrawn at sender / suppressed at gateway —
the series a Figure 3 measurement would plot — and asserts that the
*n - 1* redundant copies per invocation are all accounted for.
"""

import pytest

from repro import ReplicationStyle, World

from common import build_domain, counter_group, external_stub, replica_values

REQUESTS = 10

# (row label, degree, style, sibling link made slower than the token
#  path, then per request: copies on the wire, suppressed at gateway)
CASES = [
    ("lan-1", 1, ReplicationStyle.ACTIVE, None, 1, 0),
    ("lan-2", 2, ReplicationStyle.ACTIVE, None, 1, 0),
    ("lan-3", 3, ReplicationStyle.ACTIVE, None, 1, 0),
    ("lan-5", 5, ReplicationStyle.ACTIVE, None, 1, 0),
    # h0's and h2's copies cross; h1 withdraws.
    ("crossing-3", 3, ReplicationStyle.ACTIVE, ("dom-h0", "dom-h2"), 2, 1),
    # Voting keeps all n: one pending, one completes the majority, one late.
    ("voting-3", 3, ReplicationStyle.ACTIVE_WITH_VOTING, None, 3, 1),
]


def run_case(degree, style, slow_pair):
    world = World(seed=100 + degree, trace=False)
    domain = build_domain(world, num_hosts=max(3, degree), gateways=1)
    group = counter_group(domain, style=style, replicas=degree)
    if slow_pair is not None:
        # Ring order is gw0, h0, h1, h2: the token needs 1.4 ms from h0
        # to h2 via h1, h0's broadcast now needs 3 ms to get there.
        world.network.latency_model.set_pair(*slow_pair, 0.003)
    stub, _ = external_stub(world, domain, group, enhanced=False)
    for _ in range(REQUESTS):
        world.await_promise(stub.call("increment", 1), timeout=600)
    world.run(until=world.now + 0.5)  # drain trailing duplicates
    gateway = domain.gateways[0]
    assert set(replica_values(domain, group).values()) == {REQUESTS}
    m = world.metrics
    return {
        "degree": degree,
        "generated": m.value("eternal.invocations.executed"),
        "on_wire": m.value("gateway.resp.received"),
        "delivered": gateway.stats["responses_delivered"],
        "withdrawn_at_sender": m.value("rm.copies.withdrawn"),
        "suppressed_at_gateway": gateway.stats["duplicates_suppressed"],
        # Voting only: copies that arrived before the majority formed.
        "vote_pending": m.value("gateway.resp.vote_pending"),
    }


@pytest.mark.parametrize("label,degree,style,slow_pair,on_wire,suppressed",
                         CASES, ids=[case[0] for case in CASES])
def test_fig3_duplicate_suppression(benchmark, label, degree, style,
                                    slow_pair, on_wire, suppressed):
    row = benchmark.pedantic(run_case, args=(degree, style, slow_pair),
                             rounds=2, iterations=1)
    # Paper shape: n responses per invocation, exactly 1 delivered ...
    assert row["generated"] == degree * REQUESTS
    assert row["delivered"] == REQUESTS
    # ... and every one of the other n-1 is accounted for, copy by copy.
    assert row["on_wire"] == on_wire * REQUESTS
    assert row["withdrawn_at_sender"] == (degree - on_wire) * REQUESTS
    assert row["suppressed_at_gateway"] == suppressed * REQUESTS
    assert (row["withdrawn_at_sender"] + row["suppressed_at_gateway"]
            + row["vote_pending"]) == (degree - 1) * REQUESTS
    benchmark.extra_info.update(row)


def test_fig3_direct_access_would_diverge(benchmark):
    """The inverse experiment: bypassing the gateway (invoking a single
    replica directly) violates replica consistency — the reason the
    gateway must exist (paper section 3)."""

    def run():
        world = World(seed=99, trace=False)
        domain = build_domain(world, gateways=1)
        group = counter_group(domain, replicas=3)
        stub, _ = external_stub(world, domain, group, enhanced=False)
        world.await_promise(stub.call("increment", 1), timeout=600)
        # Direct single-replica access, as a TCP connection to one
        # replica's host would do.
        lone = domain.rms[group.info().placement[0]].replicas[group.group_id]
        lone.servant.increment(10)
        values = set(replica_values(domain, group).values())
        return {"distinct_states": len(values)}

    row = benchmark.pedantic(run, rounds=2, iterations=1)
    assert row["distinct_states"] > 1  # inconsistent replication
    benchmark.extra_info.update(row)
