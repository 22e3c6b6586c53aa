"""Property-based end-to-end invariants over the full stack.

These tests drive whole scenarios — domain, gateways, enhanced clients,
random crash schedules — and check the invariants the paper promises:

* **replica consistency**: all live replicas of a group hold identical
  state after any admissible run;
* **exactly-once**: the sum the client believes it applied equals the
  replicas' state whenever every invocation got a reply (enhanced
  clients);
* **determinism of the simulation**: identical seeds produce identical
  worlds, event for event.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    FaultToleranceDomain,
    FtClientLayer,
    Orb,
    ReplicationStyle,
    World,
)
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.errors import CommFailure, ConfigurationError
from repro.iiop import TC_LONG, TC_VOID, encode_cancel_request
from repro.orb import Interface, Operation, Param

from tests.helpers import make_counter_group, make_domain, replica_counts


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=9), min_size=1,
                max_size=12),
       st.integers(0, 2**31 - 1))
def test_replicas_agree_for_any_workload_property(amounts, seed):
    world = World(seed=seed, trace=False)
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb)
    stub = layer.string_to_object(domain.ior_for(group).to_string(),
                                  COUNTER_INTERFACE)
    total = 0
    for amount in amounts:
        op = "increment" if amount >= 0 else "decrement"
        world.await_promise(stub.call(op, abs(amount)), timeout=600)
        total += amount
    world.run(until=world.now + 0.5)
    counts = replica_counts(domain, group)
    assert len(counts) == 3
    assert set(counts.values()) == {total}


@settings(max_examples=6, deadline=None)
@given(st.integers(2, 3), st.integers(1, 8), st.integers(0, 2**31 - 1),
       st.data())
def test_exactly_once_despite_random_gateway_crash_property(
        gateways, operations, seed, data):
    """Crash one gateway at a random instant mid-workload: an enhanced
    client must still see every reply exactly once, and replica state
    must equal the number of applied increments."""
    world = World(seed=seed, trace=False)
    domain = make_domain(world, gateways=gateways)
    group = make_counter_group(domain)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb)
    stub = layer.string_to_object(domain.ior_for(group).to_string(),
                                  COUNTER_INTERFACE)
    crash_delay = data.draw(st.floats(0.0, 0.3), label="crash_delay")
    world.scheduler.call_after(
        crash_delay,
        lambda: world.faults.crash_now(domain.gateways[0].host.name))
    results = []
    for _ in range(operations):
        results.append(world.await_promise(stub.call("increment", 1),
                                           timeout=600))
    # Every reply observed exactly once, in order.
    assert results == list(range(1, operations + 1))
    world.run(until=world.now + 1.0)
    assert set(replica_counts(domain, group).values()) == {operations}


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([ReplicationStyle.ACTIVE,
                        ReplicationStyle.WARM_PASSIVE,
                        ReplicationStyle.COLD_PASSIVE]),
       st.integers(1, 10), st.integers(0, 2**31 - 1))
def test_failover_preserves_state_for_all_styles_property(style, ops, seed):
    world = World(seed=seed, trace=False)
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, style=style, replicas=3,
                               min_replicas=2, checkpoint_interval=3)
    for _ in range(ops):
        world.await_promise(group.invoke("increment", 1), timeout=600)
    victim = group.info().primary(domain.coordinator_rm().live_hosts)
    world.faults.crash_now(victim)
    assert world.await_promise(group.invoke("increment", 1),
                               timeout=600) == ops + 1


def run_fingerprint(seed):
    """A fixed scenario; returns a state fingerprint of the world."""
    world = World(seed=seed, trace=False)
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    stub = orb.string_to_object(domain.ior_for(group).to_string(),
                                COUNTER_INTERFACE)
    for _ in range(5):
        world.await_promise(stub.call("increment", 2), timeout=600)
    world.faults.crash_now(group.info().placement[0])
    world.run(until=world.now + 1.0)
    return (
        round(world.now, 9),
        world.scheduler.events_processed,
        tuple(sorted(replica_counts(domain, group).items())),
        tuple(sorted((k, v) for k, v in domain.gateways[0].stats.items())),
        domain.transport.broadcasts,
    )


def test_simulation_is_deterministic():
    assert run_fingerprint(77) == run_fingerprint(77)


def test_different_seeds_still_converge_semantically():
    a = run_fingerprint(1)
    b = run_fingerprint(2)
    # Timing details may differ, but the semantic outcome is identical.
    assert a[2] == b[2]


# ----------------------------------------------------------------------
# Everyone who waits on a replicated response gets an answer
# ----------------------------------------------------------------------

SWITCHABLE = [ReplicationStyle.ACTIVE, ReplicationStyle.ACTIVE_WITH_VOTING,
              ReplicationStyle.LEADER_FOLLOWER, ReplicationStyle.WARM_PASSIVE,
              ReplicationStyle.COLD_PASSIVE]
ACTIONS = st.one_of(
    st.sampled_from(["call", "oneway", "cancel", "reconnect", "kill",
                     "kill_gateway", "recover", "kill_parked",
                     "cut_parked"]),
    st.sampled_from(SWITCHABLE))
PAUSES = st.sampled_from([0.0, 0.005, 0.05, 0.3, 1.5])

TALLY = Interface("Tally", [
    *COUNTER_INTERFACE.operations.values(),
    Operation("bump", [Param("amount", TC_LONG)], TC_VOID, oneway=True),
])


class TallyServant(CounterServant):
    """A counter that can also be incremented without a reply."""

    interface = TALLY

    def bump(self, amount):
        self.count += amount


def parked_holder(world, domain, cut_off):
    """The connected processor the idle token rests at, waiting for it
    to come to rest if need be; None if the ring is still reforming
    50 ms on."""
    deadline = world.now + 0.05
    while True:
        holders = [name for name, member in domain.members.items()
                   if member.parked and name not in cut_off]
        if holders or world.now >= deadline:
            return holders[0] if holders else None
        world.run(until=min(deadline, world.now + 0.0007))   # one hop


def ternary(value, length):
    digits = []
    for _ in range(length):
        value, digit = divmod(value, 3)
        digits.append(digit)
    assert value == 0
    return digits


# Tier-1 runs 20 derandomised examples; under
# ``--hypothesis-profile=search`` (registered in conftest.py, run by
# CI's chaos-audit job) the profile's own count applies.
TIER1 = ({} if settings.get_current_profile_name() == "search"
         else {"max_examples": 20})


@settings(deadline=None, derandomize=True, **TIER1)
@given(st.lists(st.tuples(ACTIONS, PAUSES), min_size=1, max_size=14))
@example([(ReplicationStyle.ACTIVE, 0.3), ("call", 0.0), ("kill", 0.0),
          ("kill", 0.0), ("kill", 1.5), ("call", 0.0)])
@example([("call", 0.0), ("call", 0.0), ("call", 0.0), ("call", 1.5),
          ("reconnect", 0.0), ("call", 0.0)])
@example([(ReplicationStyle.COLD_PASSIVE, 0.3)] + [("call", 0.0)] * 11
         + [("call", 1.5), (ReplicationStyle.WARM_PASSIVE, 0.3),
            ("kill", 0.0), ("kill", 1.5), ("call", 1.5)])
def test_every_call_is_answered_whatever_dies_or_switches_property(steps):
    """A voting group behind a group of two gateways with an admission
    window of two; an enhanced client calls two-way and one-way,
    cancels its last request and drops its connection while replica
    hosts die (up to all of them) and come back, the gateway it is
    bound to dies (at pause 0.0: between accepting a request and seeing
    its INVOCATION sequenced), the processor the idle token is parked
    at dies or is cut off from all the others for good, and the group's
    style is switched live.
    At quiescence every two-way call that was not cancelled has an
    answer — a value, TRANSIENT or COMM_FAILURE — no value was produced
    by executing a call twice, every value shows the calls answered
    before it was asked for, and nothing is retained for any of it.

    Call *i*, one-way or two-way, adds 3**i, so the ternary digits of a
    counter value say how often each call had executed when it was
    read."""
    world = World(seed=7, trace=False)
    domain = FaultToleranceDomain(world, "dom")
    for _ in range(2):
        domain.add_gateway(admission_window=2)
    domain.await_stable()
    group = domain.create_group(
        "Counter", TALLY, TallyServant, num_replicas=3, min_replicas=2,
        style=ReplicationStyle.ACTIVE_WITH_VOTING)
    domain.await_ready(group)
    orb = Orb(world, world.add_host("browser"), request_timeout=None)
    stub = FtClientLayer(orb).string_to_object(
        domain.ior_for(group).to_string(), TALLY)
    requester = stub.requester
    calls, request_ids, cancelled, dead, cut_off = [], {}, set(), [], set()
    answered_before = []     # per call: the values it was issued after
    lost_everything = False
    for action, pause in steps:
        connection = requester.connection
        if action in ("call", "oneway"):
            answered_before.append([
                index for index, promise in enumerate(calls)
                if promise.done and promise.value is not None])
            amount = 3 ** len(calls)
            if action == "call":
                calls.append(stub.call("increment", amount))
                request_ids[max(requester.pending)] = len(calls) - 1
            else:
                calls.append(stub.call("bump", amount))
        elif action == "cancel":
            if connection is not None and connection.endpoint is not None:
                in_flight = connection.pending_request_ids()
                if in_flight:
                    connection.endpoint.send(
                        encode_cancel_request(in_flight[-1]))
                    cancelled.add(request_ids[in_flight[-1]])
        elif action == "reconnect":
            if connection is not None:
                connection.close()
        elif action in ("kill", "kill_parked", "cut_parked"):
            live = [name for name in domain.replica_host_names
                    if world.network.host(name).alive
                    and name not in cut_off]
            victim = live[0] if live else None
            if action != "kill":
                # Wait (a rotation at most, unless the ring is reforming)
                # for the token to come to rest, and hit its holder.
                victim = parked_holder(world, domain, cut_off)
                if victim not in live and not all(
                        gateway.host.alive
                        and gateway.host.name not in cut_off
                        for gateway in domain.gateways):
                    victim = None   # keep one gateway in the domain
            if victim is not None:
                if action == "cut_parked":
                    cut_off.add(victim)
                    world.network.partition(
                        {victim}, {host.name for host in domain.hosts
                                   if host.name != victim})
                else:
                    world.faults.crash_now(victim)
                    if victim in live:
                        dead.append(victim)
                lost_everything = lost_everything or live == [victim]
        elif action == "kill_gateway":
            bound_to = requester.current_address[0]
            if all(gateway.host.alive and gateway.host.name not in cut_off
                   for gateway in domain.gateways):
                world.faults.crash_now(bound_to)
        elif action == "recover":
            if dead:
                world.faults.recover_now(dead[-1])
                domain.restart_host(dead.pop())
        else:
            try:
                domain.switch_style(group, action)
            except ConfigurationError:
                pass  # the driver's processor has only just restarted
        world.run(until=world.now + pause)
    # Past the gateways' 30 s cancel-tombstone TTL.
    world.run(until=world.now + 35.0)

    served = {}
    for index, promise in enumerate(calls):
        if not promise.done:
            assert index in cancelled, f"call {index} hangs"
        elif promise.failed:
            assert (isinstance(promise.error, CommFailure)
                    or "Transient" in str(promise.error)), promise.error
        elif promise.value is not None:     # None: a one-way
            served[index] = ternary(promise.value, len(calls))
            assert served[index][index] == 1
            assert set(served[index]) <= {0, 1}, (index, promise.value)
    # A replica cut off for good serves nobody and learns nothing more.
    counts = {host: count
              for host, count in replica_counts(domain, group).items()
              if host not in cut_off}
    survivor = next((rm for name, rm in domain.rms.items()
                     if rm.alive and name not in cut_off), None)
    info = survivor and survivor.registry.get(group.group_id)
    if info is not None and info.style.is_passive:
        # A passive backup holds the last checkpoint, not the last
        # operation: the group's end state is its primary's.
        primary = info.primary(survivor.live_hosts)
        counts = {primary: counts[primary]} if primary in counts else {}
    counts = set(counts.values())
    assert len(counts) <= 1
    if counts and not lost_everything:
        # No replica set was ever re-created empty, so the survivors
        # hold every served call, once — and every one-way at most once.
        final = ternary(counts.pop(), len(calls))
        assert set(final) <= {0, 1}
        assert all(final[index] == 1 for index in served)
        # Real-time precedence: a value read after another call's reply
        # had arrived includes that call.
        for index, digits in served.items():
            assert all(digits[earlier] == 1
                       for earlier in answered_before[index]), index
    world.audit(strict=True)
