"""Deterministic discrete-event simulation substrate.

The paper's testbed (Solaris/Linux processors on a LAN, TCP/IP to the
outside) is replaced by this package: a single-threaded event scheduler
(one binary heap, :class:`Scheduler`), simulated hosts and processes
with fail-stop semantics, a latency-aware datagram network with
partitions, and a TCP-like reliable byte-stream layer with
listen/accept/close.  See DESIGN.md section 2 for why this
substitution preserves the behaviour the paper depends on.
"""

from .faults import FaultInjector
from .host import Host, Process
from .network import LatencyModel, Network
from .scheduler import Scheduler, Timer
from .tcp import TcpEndpoint, TcpListener, TcpStack
from .world import Promise, World

__all__ = [
    "FaultInjector",
    "Host",
    "LatencyModel",
    "Network",
    "Process",
    "Promise",
    "Scheduler",
    "TcpEndpoint",
    "TcpListener",
    "TcpStack",
    "Timer",
    "World",
]
