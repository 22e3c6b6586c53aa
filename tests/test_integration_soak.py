"""A soak-style integration scenario: everything at once.

One domain runs active, warm-passive and voting groups with nested
calls; two gateways serve a mix of plain and enhanced clients; hosts
and a gateway crash mid-run; the resource manager replaces replicas.
At the end, every surviving replica of every group must agree and all
enhanced-client operations must have exactly-once effects.
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
    TRANSFER_INTERFACE,
    TransferAgentServant,
)

from tests.helpers import make_domain


def group_states(domain, group_id, extract):
    values = set()
    for rm in domain.rms.values():
        record = rm.replicas.get(group_id)
        if record is not None and rm.alive and record.ready:
            values.add(extract(record.servant))
    return values


@pytest.mark.parametrize("seed", [1, 7, 99])
def test_soak_everything_at_once(seed):
    world = World(seed=seed)
    domain = make_domain(world, num_hosts=5, gateways=2)
    accounts = domain.create_group("Accounts", ACCOUNT_INTERFACE,
                                   AccountServant, num_replicas=3,
                                   min_replicas=3)
    domain.create_group("Ledger", LEDGER_INTERFACE, LedgerServant,
                        num_replicas=3)
    transfers = domain.create_group("Transfers", TRANSFER_INTERFACE,
                                    TransferAgentServant, num_replicas=3)
    counter = domain.create_group("Counter", COUNTER_INTERFACE,
                                  CounterServant,
                                  style=ReplicationStyle.WARM_PASSIVE,
                                  num_replicas=3, min_replicas=2)
    world.await_promise(accounts.invoke("deposit", "alice", 1_000),
                        timeout=600)

    # Two enhanced browsers and one plain browser.
    stubs = []
    for i, enhanced in enumerate((True, True, False)):
        host = world.add_host(f"browser{i}")
        orb = Orb(world, host, request_timeout=None)
        ior = domain.ior_for(transfers).to_string()
        if enhanced:
            layer = FtClientLayer(orb, client_uid=f"soak/{i}")
            stubs.append(layer.string_to_object(ior, TRANSFER_INTERFACE))
        else:
            stubs.append(orb.string_to_object(ior, TRANSFER_INTERFACE))

    counter_host = world.add_host("counter-browser")
    counter_orb = Orb(world, counter_host, request_timeout=None)
    counter_layer = FtClientLayer(counter_orb, client_uid="soak/counter")
    counter_stub = counter_layer.string_to_object(
        domain.ior_for(counter).to_string(), COUNTER_INTERFACE)

    # Fault schedule: a replica host dies early, a gateway dies later.
    victim_host = transfers.info().placement[0]
    world.faults.crash_host(victim_host, at=world.now + 0.15)
    world.faults.crash_host(domain.gateways[0].host.name, at=world.now + 0.35)

    # Workload: interleaved transfers (nested) and counter increments.
    completed_transfers = 0
    for round_no in range(6):
        promises = [stub.call("transfer", "alice", "bob", 10)
                    for stub in stubs[:2]]          # enhanced clients only
        promises.append(counter_stub.call("increment", 1))
        try:
            world.run_until_done(promises, timeout=600)
        except Exception:
            pass
        for promise in promises[:2]:
            if promise.done and not promise.failed:
                completed_transfers += 1

    world.run(until=world.now + 2.0)

    # Invariants: replicas agree; books balance; effects exactly once.
    balances = group_states(domain, accounts.group_id,
                            lambda s: tuple(sorted(s.balances.items())))
    assert len(balances) == 1, balances
    balance = dict(balances.pop())
    assert balance["alice"] + balance["bob"] == 1_000
    assert balance["bob"] == 10 * completed_transfers

    ledger_group = domain.resolve("Ledger")
    entries = group_states(domain, ledger_group.group_id,
                           lambda s: len(s.log))
    assert entries == {completed_transfers}

    counts = group_states(domain, counter.group_id, lambda s: s.count)
    assert counts == {6}
