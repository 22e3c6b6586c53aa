"""Shared helpers for the test suite."""

from __future__ import annotations

import random

from repro import (
    FaultToleranceDomain,
    FtClientLayer,
    Orb,
    ReplicationStyle,
    TotemConfig,
    World,
)
from repro.apps import (
    ACCOUNT_INTERFACE,
    COUNTER_INTERFACE,
    AccountServant,
    CounterServant,
    LEDGER_INTERFACE,
    LedgerServant,
    TRANSFER_INTERFACE,
    TransferAgentServant,
)
from repro.errors import CorbaSystemException
from repro.iiop import TC_LONG, TC_STRING, TC_VOID
from repro.obs.metrics import CallbackCounter
from repro.orb import Interface, Operation, Param, Servant

EVENTS = Interface("EventSink", [
    Operation("emit", [Param("note", TC_STRING)], TC_VOID, oneway=True),
    Operation("count", [], TC_LONG),
])


class EventSinkServant(Servant):
    """One-way ``emit`` appends a note; two-way ``count`` reads them."""

    interface = EVENTS

    def __init__(self):
        self.notes = []

    def emit(self, note):
        self.notes.append(note)

    def count(self):
        return len(self.notes)


def counters_from_here(world):
    """``grown(name)``: how far the world counter ``name`` grew after
    this call.  Creating a group is itself an invocation (of the
    replicated Replication Manager), so a test that counts the work of
    its own operations starts counting once its groups exist."""
    metrics = world.metrics
    base = {name: metrics.value(name) for name in metrics.names()
            if isinstance(metrics.get(name), CallbackCounter)}
    return lambda name: metrics.value(name) - base.get(name, 0)


def make_domain(world, name="dom", num_hosts=3, gateways=0, mirror=True,
                totem_config=None):
    """A stable domain with ``gateways`` gateways attached."""
    domain = FaultToleranceDomain(world, name, num_hosts=num_hosts,
                                  totem_config=totem_config)
    for _ in range(gateways):
        domain.add_gateway(port=2809, mirror_requests=mirror)
    domain.await_stable()
    return domain


def make_counter_group(domain, style=ReplicationStyle.ACTIVE, replicas=3,
                       name="Counter", **kwargs):
    return domain.create_group(name, COUNTER_INTERFACE, CounterServant,
                               style=style, num_replicas=replicas, **kwargs)


def ready_counter_group(domain, **kwargs):
    """:func:`make_counter_group`, then run until the group is ready."""
    group = make_counter_group(domain, **kwargs)
    domain.await_ready(group)
    return group


def external_client(world, domain, group, enhanced=True, host_name="browser",
                    first_gateway_only=False):
    """Returns (orb, stub) for an unreplicated client outside the domain."""
    host = (world.network.hosts.get(host_name)
            or world.add_host(host_name))
    orb = Orb(world, host, request_timeout=None)
    ior = domain.ior_for(group, first_gateway_only=first_gateway_only)
    if enhanced:
        layer = FtClientLayer(orb)
        stub = layer.string_to_object(ior.to_string(), group.interface)
        return orb, stub, layer
    stub = orb.string_to_object(ior.to_string(), group.interface)
    return orb, stub, None


def replica_counts(domain, group, attribute="count"):
    """``attribute`` of the servant at every live replica of ``group``
    (the counter value by default)."""
    values = {}
    for host_name, rm in domain.rms.items():
        record = rm.replicas.get(group.group_id)
        if record is not None and rm.alive:
            values[host_name] = getattr(record.servant, attribute)
    return values


def make_bank(domain, style, **kwargs):
    """Figure 6's three groups, all of ``style``: (accounts, ledger,
    transfer agent), with 100 deposited for alice."""
    bank = (
        domain.create_group("Accounts", ACCOUNT_INTERFACE, AccountServant,
                            style=style, **kwargs),
        domain.create_group("Ledger", LEDGER_INTERFACE, LedgerServant,
                            style=style, **kwargs),
        domain.create_group("Transfers", TRANSFER_INTERFACE,
                            TransferAgentServant, style=style, **kwargs),
    )
    domain.world.await_promise(bank[0].invoke("deposit", "alice", 100))
    return bank


def transfer_then_read(world, agent):
    """``transfer`` and ``transfers_done`` issued back to back: the read
    completes at the primary while the transfer still waits on its
    nested calls, so the two complete out of total order."""
    world.run_until_done([agent.invoke("transfer", "alice", "bob", 1),
                          agent.invoke("transfers_done")], timeout=60)
    world.run(until=world.now + 0.2)


SLOW_TOTEM = TotemConfig(token_hold=0.005, token_loss_timeout=0.12,
                         gather_timeout=0.02)
"""A deliberately slow ring (with a matching loss timeout): widens the
request-in-flight window for crash-timing tests."""


def crash_gateway_on_response(world, gateway):
    """Arrange for ``gateway`` to crash at the exact instant the next
    domain response reaches it -- after the invocation executed inside
    the domain, before the reply can leave for the client.  This is the
    precise failure window sections 3.4/3.5 reason about."""

    def crash_instead(msg):
        world.faults.crash_now(gateway.host.name)

    gateway._on_domain_response = crash_instead


# ----------------------------------------------------------------------
# The gateway-farm open loop
# ----------------------------------------------------------------------

#: Heavy-tail cap: bounded-Pareto samples are clamped at this multiple
#: of the mean, so one astronomical gap cannot stall a finite run.
PARETO_CAP_MEANS = 50.0
#: Arrivals due within one such slot of simulated time are injected by
#: one ``post_batch`` call.
COHORT_QUANTUM_S = 0.002


def interarrival_sampler(rng, mean, distribution="exponential"):
    """A zero-arg sampler of inter-arrival gaps with the given mean.

    ``exponential`` is the Poisson process; ``pareto`` (alpha=1.5
    bounded Pareto, clamped at :data:`PARETO_CAP_MEANS` means) models
    the bursty, heavy-tailed arrivals of aggregate internet traffic.
    """
    if distribution == "exponential":
        rate = 1.0 / mean
        return lambda: rng.expovariate(rate)
    if distribution == "pareto":
        alpha = 1.5
        xmin = mean * (alpha - 1.0) / alpha
        cap = mean * PARETO_CAP_MEANS
        return lambda: min(cap, xmin * rng.paretovariate(alpha))
    raise ValueError(f"unknown inter-arrival distribution {distribution!r}")


def is_shed(exc):
    """Was this failure an admission-control shed (TRANSIENT)?"""
    return (isinstance(exc, CorbaSystemException)
            and "Transient" in str(exc))


def farm_open_loop(world, make_stub, arrivals, rate_per_s, seed=0,
                   interarrival="exponential"):
    """A precomputed open-loop schedule of ``increment`` calls, injected
    through the scheduler's bulk cohort path.

    The whole arrival schedule (``arrivals`` gaps from one seeded
    sampler) is computed up front, quantised into
    :data:`COHORT_QUANTUM_S` slots, and each slot is injected with one
    :meth:`Scheduler.post_batch` call, keeping per-arrival event
    granularity and deterministic ordering.  ``make_stub(i)`` builds the
    stub for the i-th arrival: the seam where a farm driver gives every
    arrival its own logical client identity.

    Returns the ``latencies`` of served requests, counts of ``served`` /
    ``shed`` / ``failed`` arrivals (shed = admission-control TRANSIENT,
    the farm's lost offered load), and the ``span`` from first arrival
    to last served completion.
    """
    gap = interarrival_sampler(random.Random(seed), 1.0 / rate_per_s,
                               interarrival)
    cohorts = {}
    at = 0.0
    for i in range(arrivals):
        at += gap()
        cohorts.setdefault(int(at / COHORT_QUANTUM_S), []).append((i,))

    started_at = world.now
    state = {"latencies": [], "served": 0, "shed": 0, "failed": 0,
             "last": started_at}

    def fire(i):
        started = world.now
        promise = make_stub(i).call("increment", 1)

        def on_done(p):
            if p.failed:
                state["shed" if is_shed(p.error) else "failed"] += 1
                return
            state["latencies"].append(world.now - started)
            state["served"] += 1
            state["last"] = world.now

        promise.on_done(on_done)

    for slot in sorted(cohorts):
        world.scheduler.post_batch(slot * COHORT_QUANTUM_S, fire,
                                   cohorts[slot])
    world.scheduler.run_until(
        lambda: state["served"] + state["shed"] + state["failed"] == arrivals,
        timeout=600.0)
    state["span"] = state.pop("last") - started_at
    return state


def percentiles(samples, points=(50, 95, 99)):
    """Nearest-rank percentiles plus mean, rounded for reporting."""
    if not samples:
        return {}
    ordered = sorted(samples)
    result = {"mean": round(sum(ordered) / len(ordered), 5),
              "count": len(ordered)}
    for point in points:
        index = min(len(ordered) - 1,
                    max(0, int(round(point / 100.0 * len(ordered))) - 1))
        result[f"p{int(point)}"] = round(ordered[index], 5)
    return result
