"""Deep coverage of state transfer to new and recovering replicas."""

import pytest

from repro import ReplicationStyle, Servant, World
from repro.eternal import DomainMessage, MsgKind
from repro.iiop import TC_LONG
from repro.orb import Interface, Operation, Param

from tests.helpers import make_counter_group, make_domain, replica_counts


def add_replica(domain, group, host):
    domain.coordinator_rm().multicast(DomainMessage(
        kind=MsgKind.ADD_REPLICA, source_group=0, target_group=0,
        data={"group_id": group.group_id, "host": host}))


def spare_host(domain, group):
    return [h for h in domain.replica_host_names
            if h not in group.info().placement][0]


def test_dedup_table_travels_with_state(world):
    """A joiner must inherit the donor's duplicate-detection table, or a
    reissued old invocation would re-execute at the new replica only."""
    domain = make_domain(world, num_hosts=4, gateways=1)
    group = make_counter_group(domain, replicas=3, min_replicas=3)
    from tests.helpers import external_client
    _, stub, _ = external_client(world, domain, group)
    world.await_promise(stub.call("increment", 5), timeout=600)
    world.run(until=world.now + 0.3)
    victim = group.info().placement[0]
    world.faults.crash_now(victim)
    world.run(until=world.now + 2.0)   # replacement + transfer
    replacement = [h for h in group.info().placement if h != victim][-1]
    rm = domain.rms[replacement]
    seen = rm._invocations_seen.get(group.group_id, {})
    assert seen, "dedup table was not transferred"
    # Cached responses came along too (the reissue path depends on them).
    assert any(type(entry) is bytes for entry in seen.values())


def test_passive_transfer_records_snapshot_as_checkpoint(world):
    """The snapshot already contains the logged ops' effects, so the
    joiner's log must be empty with a checkpoint at the cut — a later
    promotion replays nothing stale (no double execution)."""
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, style=ReplicationStyle.COLD_PASSIVE,
                               replicas=3, min_replicas=3,
                               checkpoint_interval=50)  # no checkpoint yet
    for _ in range(4):
        world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 0.3)
    victim = group.info().placement[1]   # a backup
    world.faults.crash_now(victim)
    world.run(until=world.now + 2.0)
    replacement = [h for h in group.info().placement][-1]
    record = domain.rms[replacement].replicas[group.group_id]
    assert record.log == []                    # covered by the snapshot
    assert record.checkpoint[1] > 0            # checkpoint at the cut
    # Promotion after the transfer must not double-apply anything:
    # crash the primary; the fresh backup takes over exactly-once.
    primary = group.info().primary(domain.coordinator_rm().live_hosts)
    world.faults.crash_now(primary)
    assert world.await_promise(group.invoke("increment", 1),
                               timeout=600) == 5


def test_two_simultaneous_joiners(world):
    domain = make_domain(world, num_hosts=5)
    group = make_counter_group(domain, replicas=2, min_replicas=2)
    world.await_promise(group.invoke("increment", 9))
    spares = [h for h in domain.replica_host_names
              if h not in group.info().placement][:2]
    for host in spares:
        add_replica(domain, group, host)
    world.run(until=world.now + 2.0)
    info = group.info()
    assert set(spares) <= set(info.placement)
    for host in spares:
        record = domain.rms[host].replicas[group.group_id]
        assert record.ready and record.servant.count == 9
    # All four replicas stay consistent under further traffic.
    world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 0.3)
    assert set(replica_counts(domain, group).values()) == {10}


def test_donor_crash_before_transfer_leaves_joiner_pending(world):
    """If the only donor dies before its STATE_TRANSFER is sent, the
    joiner stays un-ready rather than serving uninitialised state."""
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=1, min_replicas=1,
                               placement=["dom-h0"])
    world.await_promise(group.invoke("increment", 3))
    # Sabotage the donor: its state-transfer send is suppressed, then
    # it dies — the joiner must not fabricate state.
    donor_rm = domain.rms["dom-h0"]
    original = donor_rm.multicast

    def drop_transfers(message):
        if message.kind is MsgKind.STATE_TRANSFER:
            return
        original(message)

    donor_rm.multicast = drop_transfers
    add_replica(domain, group, "dom-h1")
    world.run(until=world.now + 1.0)
    joiner = domain.rms["dom-h1"].replicas[group.group_id]
    assert not joiner.ready
    # Invocations meanwhile are buffered, not executed, at the joiner.
    promise = group.invoke("increment", 1)
    world.await_promise(promise, timeout=600)  # donor still serves
    assert joiner.buffered


def test_a_joiner_whose_donor_dies_gets_the_state_from_the_next_primary(
        world):
    """The donor (the group's primary) dies after delivering the
    ADD_REPLICA, before its STATE_TRANSFER is sequenced: at the
    membership change the next primary sends the state, so the joiner
    becomes ready and the group runs at its minimum again."""
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=3, min_replicas=3)
    domain.await_ready(group)
    world.await_promise(group.invoke("increment", 1))
    assert group.info().placement == ("dom-h2", "dom-h3", "dom-h0")
    donor = domain.rms["dom-h2"]
    apply_add = donor._kind_dispatch[MsgKind.ADD_REPLICA]

    def crash_after_add(message):
        apply_add(message)
        if message.data["host"] == "dom-h1":
            world.faults.crash_host("dom-h2", at=world.now + 10e-6)

    donor._kind_dispatch[MsgKind.ADD_REPLICA] = crash_after_add
    world.faults.crash_now("dom-h3")
    world.run(until=world.now + 3.0)
    assert not world.network.host("dom-h2").alive
    assert domain.rms["dom-h0"].stats["state_transfers_sent"] == 1
    joiner = domain.rms["dom-h1"]
    assert joiner.stats["state_transfers_received"] == 1
    assert joiner.replicas[group.group_id].ready
    assert world.await_promise(group.invoke("increment", 1)) == 2
    world.run(until=world.now + 0.1)
    assert replica_counts(domain, group) == {"dom-h0": 2, "dom-h1": 2}
    world.audit(strict=True)


def test_transfer_includes_in_flight_buffering_boundary(world):
    """Invocations ordered between ADD_REPLICA and STATE_TRANSFER are
    buffered at the joiner and applied exactly once after the snapshot
    (the snapshot covers everything before the cut, the buffer after)."""
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, replicas=2, min_replicas=2)
    world.await_promise(group.invoke("increment", 1))
    spare = spare_host(domain, group)
    add_replica(domain, group, spare)
    # Race traffic into the transfer window.
    promises = [group.invoke("increment", 1) for _ in range(8)]
    world.run_until_done(promises, timeout=600)
    world.run(until=world.now + 2.0)
    counts = replica_counts(domain, group)
    assert counts[spare] == 9
    assert set(counts.values()) == {9}


def test_replacement_after_replacement(world):
    """Serial failures: each replacement becomes a donor for the next."""
    domain = make_domain(world, num_hosts=5)
    group = make_counter_group(domain, replicas=2, min_replicas=2)
    world.await_promise(group.invoke("increment", 4))
    for round_no in range(2):
        victim = group.info().placement[0]
        world.faults.crash_now(victim)
        world.run(until=world.now + 2.0)
        assert len(group.info().placement) == 2
        world.await_promise(group.invoke("increment", 1), timeout=600)
    assert set(replica_counts(domain, group).values()) == {6}


# ----------------------------------------------------------------------
# Recovery cost vs servant state size (E12, a section 2.2 ablation)
# ----------------------------------------------------------------------

BLOB = Interface("BlobStore", [
    Operation("fill", [Param("kilobytes", TC_LONG)], TC_LONG),
    Operation("size", [], TC_LONG),
])


class BlobServant(Servant):
    interface = BLOB

    def __init__(self):
        self.blob = b""

    def fill(self, kilobytes):
        self.blob = bytes(kilobytes * 1024)
        return len(self.blob)

    def size(self):
        return len(self.blob)

    def get_state(self):
        return {"blob": self.blob}

    def set_state(self, state):
        self.blob = state["blob"]


def recover_blob_replica(kilobytes):
    """Crash one of three replicas holding ``kilobytes`` of state; the
    simulated time and the KB on the wire until the degree is restored."""
    world = World(seed=1200 + kilobytes)
    domain = make_domain(world, num_hosts=4)
    group = domain.create_group("Blob", BLOB, BlobServant,
                                style=ReplicationStyle.ACTIVE,
                                num_replicas=3, min_replicas=3)
    domain.await_ready(group)
    world.await_promise(group.invoke("fill", kilobytes), timeout=600)
    world.run(until=world.now + 0.2)
    bytes_before = world.network.bytes_sent
    t0 = world.now
    world.faults.crash_now(group.info().placement[0])
    world.scheduler.run_until(
        lambda: group.info() is not None
        and len(group.info().placement) == 3 and group.is_ready(),
        timeout=600.0)
    return world.now - t0, (world.network.bytes_sent - bytes_before) / 1024


@pytest.mark.parametrize("kilobytes", [1, 64, 512])
def test_recovery_time_vs_state_size(kilobytes):
    recovery_s, moved_kb = recover_blob_replica(kilobytes)
    # Shape: recovery is dominated by failure *detection* (token-loss
    # timeout), so simulated recovery time is nearly flat in state size;
    # the traffic moved grows linearly with the state.
    assert recovery_s < 5.0
    assert moved_kb >= kilobytes  # the snapshot crossed the wire


def test_transfer_traffic_scales_linearly():
    moved = {kb: recover_blob_replica(kb)[1] for kb in (16, 256)}
    assert moved[256] > 8 * moved[16] / 2  # roughly linear growth
