"""Systematic fault sweep: crash every component at a grid of instants.

A lightweight model-checking-style campaign: the same fixed workload is
run once per (victim, crash-time) pair covering every processor in the
domain — replica hosts, both gateways — and a grid of crash instants
spanning connection setup, request forwarding, execution and reply.
After every run the invariants must hold:

* the enhanced client's completed operations form a prefix-free,
  exactly-once sequence (results are 1..k for some k = all of them,
  since redundant gateways + reissue mask every single fault);
* every surviving replica holds exactly k;
* the simulation reached quiescence (no livelock).

The full cartesian sweep lives in ``tools/chaos_sweep.py``; this test
runs a bounded grid so the suite stays fast.
"""

import pytest

from repro import FtClientLayer, Orb, World
from repro.apps import COUNTER_INTERFACE

from tests.helpers import make_counter_group, make_domain, replica_counts

OPERATIONS = 4


def run_scenario(victim_index, crash_delay, seed=5):
    world = World(seed=seed)
    domain = make_domain(world, num_hosts=4, gateways=2)
    group = make_counter_group(domain, replicas=3, min_replicas=2)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="chaos")
    stub = layer.string_to_object(domain.ior_for(group).to_string(),
                                  COUNTER_INTERFACE)

    victims = ([h.name for h in domain.hosts])
    victim = victims[victim_index % len(victims)]
    world.scheduler.call_after(crash_delay,
                               lambda: world.faults.crash_now(victim))
    results = []
    for _ in range(OPERATIONS):
        results.append(world.await_promise(stub.call("increment", 1),
                                           timeout=600))
    world.run(until=world.now + 2.0)
    counts = set(replica_counts(domain, group).values())
    # Quiescence also means reclamation: no live component may hold
    # per-client state above its declared floor (repro.obs.audit).
    world.audit(strict=True)
    return victim, results, counts


# Crash instants (seconds): before the first request arrives, during
# forwarding, during execution/reply, and between operations.
GRID = [0.01, 0.05, 0.09, 0.2, 0.5]


@pytest.mark.parametrize("victim_index", range(6))
@pytest.mark.parametrize("crash_delay", GRID)
def test_single_fault_never_violates_exactly_once(victim_index, crash_delay):
    victim, results, counts = run_scenario(victim_index, crash_delay)
    assert results == [1, 2, 3, 4], (victim, crash_delay, results)
    assert counts == {OPERATIONS}, (victim, crash_delay, counts)
