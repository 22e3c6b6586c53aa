"""The grand tour: every subsystem in one scenario.

An end-to-end integration test exercising, in a single world: bootstrap
via the replicated Naming Service, group creation through the CORBA
Replication Manager's ``create_object``, mixed replication
styles with nested invocations, redundant gateways with an enhanced
external client, a mid-run gateway crash, a replica host crash with
resource-manager healing, a fault-detector eviction, a rolling live
upgrade, processor restart, and fault-notifier observation — finishing
with full-consistency assertions and a coherent status report.
"""

import pytest

from repro import FtClientLayer, Orb, ReplicationStyle, World
from repro.apps import (
    ACCOUNT_INTERFACE,
    AccountServant,
    COUNTER_INTERFACE,
    CounterServant,
    LEDGER_INTERFACE,
    LedgerServant,
    NAMING_INTERFACE,
    TRANSFER_INTERFACE,
    TransferAgentServant,
)
from repro.eternal import FaultKind, FaultNotifier, domain_report

from tests.helpers import make_domain


class MonitoredCounter(CounterServant):
    def __init__(self):
        super().__init__()
        self.healthy = True

    def health_check(self):
        return self.healthy


class MonitoredCounterV2(MonitoredCounter):
    pass


def test_grand_tour():
    world = World(seed=20260705)
    domain = make_domain(world, num_hosts=5, gateways=2)
    notifier = FaultNotifier(domain)

    # --- bootstrap: naming + manager-created groups -------------------
    domain.enable_naming()
    domain.register_interface(COUNTER_INTERFACE)
    domain.register_factory("monitored_counter", MonitoredCounter)
    world.await_promise(domain.invoke(
        "EternalReplicationManager", "create_object",
        ["Inventory", "Counter", "monitored_counter", "active", 3, 3, 10,
         []]), timeout=600)
    inventory = domain.resolve("Inventory")
    domain.await_ready(inventory)
    domain._bind_name(inventory)

    # Bank trio with nested transfers, warm-passive ledger.
    accounts = domain.create_group("Accounts", ACCOUNT_INTERFACE,
                                   AccountServant)
    domain.create_group("Ledger", LEDGER_INTERFACE, LedgerServant,
                        style=ReplicationStyle.WARM_PASSIVE)
    transfers = domain.create_group("Transfers", TRANSFER_INTERFACE,
                                    TransferAgentServant)
    world.await_promise(accounts.invoke("deposit", "alice", 500),
                        timeout=600)

    # --- external client bootstraps purely by name --------------------
    browser = world.add_host("browser")
    orb = Orb(world, browser, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="tourist")
    naming = layer.string_to_object(
        domain.ior_for("EternalNaming").to_string(), NAMING_INTERFACE)
    inventory_ior = world.await_promise(naming.call("resolve", "Inventory"),
                                        timeout=600)
    transfers_ior = world.await_promise(naming.call("resolve", "Transfers"),
                                        timeout=600)
    inventory_stub = layer.string_to_object(inventory_ior, COUNTER_INTERFACE)
    transfers_stub = layer.string_to_object(transfers_ior, TRANSFER_INTERFACE)

    assert world.await_promise(inventory_stub.call("increment", 10),
                               timeout=600) == 10
    assert world.await_promise(
        transfers_stub.call("transfer", "alice", "bob", 100),
        timeout=600) == 100

    # --- fault barrage -------------------------------------------------
    world.faults.crash_now(domain.gateways[0].host.name)   # gateway dies
    assert world.await_promise(inventory_stub.call("increment", 5),
                               timeout=600) == 15

    victim = inventory.info().placement[0]                 # replica host dies
    world.faults.crash_now(victim)
    world.run(until=world.now + 2.5)                       # RM heals
    assert len(inventory.info().placement) == 3

    sick = inventory.info().placement[0]                   # replica sickens
    domain.rms[sick].replicas[inventory.group_id].servant.healthy = False
    world.run(until=world.now + 2.5)                       # detector evicts

    world.faults.recover_now(victim)                       # processor back
    domain.restart_host(victim)
    domain.await_stable(timeout=60)

    # --- rolling upgrade under traffic ---------------------------------
    domain.register_factory("monitored_counter.v2", MonitoredCounterV2)
    upgrade = domain.evolution.upgrade_group("Inventory",
                                             "monitored_counter.v2")
    assert world.await_promise(inventory_stub.call("increment", 5),
                               timeout=600) == 20
    assert world.await_promise(upgrade, timeout=600) == 2

    # --- final invariants ----------------------------------------------
    assert world.await_promise(inventory_stub.call("value"),
                               timeout=600) == 20
    assert world.await_promise(accounts.invoke("balance", "alice"),
                               timeout=600) == 400
    assert world.await_promise(accounts.invoke("balance", "bob"),
                               timeout=600) == 100
    world.run(until=world.now + 1.0)

    inventory_states = set()
    for rm in domain.rms.values():
        record = rm.replicas.get(inventory.group_id)
        if record is not None and rm.alive and record.ready:
            inventory_states.add(record.servant.count)
            assert type(record.servant) is MonitoredCounterV2
    assert inventory_states == {20}

    report = domain_report(domain)
    assert report["stable"]
    by_name = {g["name"]: g for g in report["groups"]}
    assert by_name["Inventory"]["healthy"]
    assert by_name["Inventory"]["version"] == 2

    kinds = {r.kind for r in notifier.reports}
    assert FaultKind.MEMBERSHIP_CHANGED in kinds
    assert FaultKind.REPLICA_REMOVED in kinds
    changes = notifier.history(FaultKind.MEMBERSHIP_CHANGED)
    assert any(victim in r.detail["left"] for r in changes)
    assert any(victim in r.detail["joined"] for r in changes)
