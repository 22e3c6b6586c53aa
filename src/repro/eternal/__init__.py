"""The Eternal fault tolerance infrastructure (paper Figure 2).

Everything inside a fault tolerance domain: the per-processor
Replication Mechanisms over Totem, logging/recovery, the replicated
Replication Manager, the Resource and Evolution managers, the IOR
interceptor, cross-domain egress, and the domain orchestration object.
"""

from .domain import FaultToleranceDomain, GroupHandle
from .egress import DomainEgress
from .fault_detector import FaultDetector
from .fault_notifier import FaultKind, FaultNotifier, FaultReport
from .interceptor import EternalInterceptor
from .logging_recovery import Checkpoint, GroupLog
from .managers import (
    EvolutionManager,
    REPLICATION_MANAGER_INTERFACE,
    ReplicationManagerServant,
    ResourceManager,
)
from .messages import DomainMessage, MsgKind
from .naming import (
    EXTERNAL_GROUP,
    FIRST_APPLICATION_GROUP,
    GATEWAY_GROUP,
    REPLICATION_MANAGER_GROUP,
    make_object_key,
    parse_object_key,
)
from .registry import GroupInfo, GroupRegistry
from .replication import ReplicationMechanisms
from .report import domain_report, format_report
from .styles import ReplicationStyle

__all__ = [
    "Checkpoint",
    "DomainEgress",
    "DomainMessage",
    "EXTERNAL_GROUP",
    "EternalInterceptor",
    "FaultDetector",
    "FaultKind",
    "FaultNotifier",
    "FaultReport",
    "EvolutionManager",
    "FIRST_APPLICATION_GROUP",
    "FaultToleranceDomain",
    "GATEWAY_GROUP",
    "GroupHandle",
    "GroupInfo",
    "GroupLog",
    "GroupRegistry",
    "MsgKind",
    "REPLICATION_MANAGER_GROUP",
    "REPLICATION_MANAGER_INTERFACE",
    "ReplicationManagerServant",
    "ReplicationMechanisms",
    "ReplicationStyle",
    "ResourceManager",
    "domain_report",
    "format_report",
    "make_object_key",
    "parse_object_key",
]
