"""Shared helpers for the test suite."""

from __future__ import annotations

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
from repro.iiop import TC_LONG, TC_STRING, TC_VOID
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
