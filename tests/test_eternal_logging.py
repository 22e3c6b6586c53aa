"""Unit tests for the Logging-Recovery Mechanisms' group log, and the
checkpoint interval that feeds it."""

from repro import ReplicationStyle
from repro.core import OperationId
from repro.eternal import DomainMessage, GroupLog, MsgKind

from tests.helpers import make_counter_group, make_domain


def invocation(ts, seq=1):
    msg = DomainMessage(kind=MsgKind.INVOCATION, source_group=0,
                        target_group=10, op_id=OperationId(0, seq))
    msg.timestamp = ts
    return msg


def test_record_and_replay_all():
    log = GroupLog(10)
    for ts in (5, 9, 12):
        log.record_invocation(invocation(ts))
    assert len(log) == 3
    assert [m.timestamp for m in log.replay_after(0)] == [5, 9, 12]


def test_replay_after_is_strictly_greater():
    log = GroupLog(10)
    for ts in (5, 9, 12):
        log.record_invocation(invocation(ts))
    assert [m.timestamp for m in log.replay_after(9)] == [12]


def test_checkpoint_truncates_covered_prefix():
    log = GroupLog(10)
    for ts in (5, 9, 12, 20):
        log.record_invocation(invocation(ts))
    log.install_checkpoint({"count": 2}, ts=12)
    assert len(log) == 1
    assert log.latest_covered_ts() == 12
    assert [m.timestamp for m in log.replay_after(log.latest_covered_ts())] == [20]


def test_stale_checkpoint_ignored():
    log = GroupLog(10)
    log.install_checkpoint({"count": 5}, ts=100)
    log.install_checkpoint({"count": 1}, ts=50)  # older: a replayed message
    assert log.checkpoint.state == {"count": 5}
    assert log.latest_covered_ts() == 100


def test_ops_since_checkpoint_counter(world):
    """The checkpoint interval counts the operations a passive primary
    completes (``ReplicaRecord.since_checkpoint``), not log entries:
    taking a checkpoint resets it, and backups, which complete nothing,
    stay at zero."""
    domain = make_domain(world)
    group = make_counter_group(domain, style=ReplicationStyle.COLD_PASSIVE,
                               checkpoint_interval=3)
    domain.await_ready(group)
    info = group.info()
    primary = info.primary(domain.coordinator_rm().live_hosts)
    records = {host: domain.rms[host].replicas[group.group_id]
               for host in info.placement}
    completed = []
    for _ in range(4):
        world.await_promise(group.invoke("increment", 1))
        completed.append(records[primary].since_checkpoint)
    assert completed == [1, 2, 0, 1]
    assert all(record.since_checkpoint == 0
               for host, record in records.items() if host != primary)
    assert domain.rms[primary].stats["checkpoints"] == 1


def test_no_checkpoint_means_cover_ts_zero():
    log = GroupLog(10)
    assert log.latest_covered_ts() == 0
    assert log.checkpoint is None
