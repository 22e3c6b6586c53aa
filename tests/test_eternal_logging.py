"""Unit tests for the Logging-Recovery Mechanisms' share of a passive
replica — the log and checkpoint on its record, kept by the passive
engine — and the checkpoint interval that feeds them."""

from collections import Counter, defaultdict
from types import SimpleNamespace

from repro import ReplicationStyle
from repro.core import OperationId
from repro.core.duplicates import DedupTable
from repro.eternal import DomainMessage, GroupInfo, MsgKind
from repro.eternal.engines import Passive
from repro.eternal.replication import ReplicaRecord
from repro.iiop.giop import RequestMessage, encode_request

from tests.helpers import make_counter_group, make_domain

GROUP = GroupInfo(group_id=10, name="counter", interface_name="Counter",
                  factory_name="counter",
                  style=ReplicationStyle.COLD_PASSIVE,
                  placement=("primary", "backup"))


class _Servant:
    def __init__(self):
        self.restored = []

    def set_state(self, state):
        self.restored.append(state)


class _Mechanisms:
    """What the passive engine asks of the Replication Mechanisms on
    this processor, a backup: executions are recorded, not run."""

    def __init__(self):
        self.stats = Counter()
        self.live_hosts = GROUP.placement
        self.host = SimpleNamespace(name="backup")
        self._invocations_seen = defaultdict(lambda: DedupTable(100))
        self.executed = []

    def _execute(self, msg, record, info, request, key, silent=False):
        self.executed.append(msg.timestamp)


def engine():
    return Passive(_Mechanisms(), ReplicationStyle.COLD_PASSIVE)


def invocation(ts, seq=1):
    msg = DomainMessage(kind=MsgKind.INVOCATION, source_group=0,
                        target_group=10, op_id=OperationId(ts, seq),
                        iiop=encode_request(RequestMessage(
                            request_id=ts, response_expected=True,
                            object_key=b"k", operation="increment")))
    msg.timestamp = ts
    return msg


def logged(passive, *stamps):
    record = ReplicaRecord(group_id=10, servant=_Servant())
    for ts in stamps:
        msg = invocation(ts)
        passive.deliver(msg, record, GROUP, msg.request(), None)
    return record


def test_record_and_replay_all():
    passive = engine()
    record = logged(passive, 5, 9, 12)
    assert passive.rm.executed == []           # a backup only logs
    assert [m.timestamp for m in record.log] == [5, 9, 12]
    assert passive._replay(GROUP, record, silent=True) == 3
    assert passive.rm.executed == [5, 9, 12]
    assert list(passive.rm._invocations_seen[10].values()) == [
        "executing"] * 3


def test_replay_after_is_strictly_greater():
    passive = engine()
    record = logged(passive, 5, 9, 12)
    passive._checkpoint(record, {"count": 2}, 9)
    passive._replay(GROUP, record, silent=True)
    assert passive.rm.executed == [12]


def test_checkpoint_truncates_covered_prefix():
    passive = engine()
    record = logged(passive, 5, 9, 12, 20)
    passive._checkpoint(record, {"count": 2}, 12)
    assert [m.timestamp for m in record.log] == [20]
    assert record.checkpoint == ({"count": 2}, 12)
    assert passive._replay(GROUP, record, silent=False) == 1
    assert record.servant.restored == [{"count": 2}]
    assert passive.rm.executed == [20]


def test_stale_checkpoint_ignored():
    passive = engine()
    record = ReplicaRecord(group_id=10, servant=_Servant())
    passive._checkpoint(record, {"count": 5}, 100)
    passive._checkpoint(record, {"count": 1}, 50)  # older: a replayed message
    assert record.checkpoint == ({"count": 5}, 100)
    assert passive.rm.stats["checkpoint_installs"] == 1


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
    """With no checkpoint, a replay restores nothing and executes the
    whole log again; a first checkpoint starts a log where none was."""
    passive = engine()
    record = logged(passive, 3, 4)
    assert record.checkpoint is None
    assert passive._replay(GROUP, record, silent=True) == 2
    assert record.servant.restored == []
    assert passive.rm.executed == [3, 4]
    fresh = ReplicaRecord(group_id=10, servant=_Servant())
    assert fresh.log is None
    passive._checkpoint(fresh, {"count": 0}, 7)
    assert fresh.log == [] and fresh.checkpoint == ({"count": 0}, 7)
