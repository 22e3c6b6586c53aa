"""Datagram transport and member registry for one Totem domain.

Totem runs over a LAN broadcast medium; here the broadcast is modelled
as one datagram per registered member, fanned out by the network in one
delivery event per distinct latency (the sender's loopback, and the LAN
members together), which makes every broadcast *atomic with respect to
crashes*: a datagram is either offered to all live members or (if the
sender was already dead) to none.  This matches the paper's fault
model, where message loss comes from processor failure and partition,
not per-link drops.  What is broadcast is a :class:`Frame` (messages
of one token visit), a Join or a Commit: ``totem.broadcasts`` /
``totem.datagrams`` count those, and ``totem.frame.messages`` how many
messages a frame held.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..sim.network import Network
from .messages import Frame, RegularMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .member import TotemMember


class TotemTransport:
    """Names the members of one fault tolerance domain's ring."""

    def __init__(self, network: Network, domain_name: str) -> None:
        self.network = network
        self.domain_name = domain_name
        self._members: Dict[str, "TotemMember"] = {}
        self.broadcasts = 0
        self.datagrams = 0
        self._m_broadcasts = network.metrics.counter("totem.broadcasts")
        self._m_datagrams = network.metrics.counter("totem.datagrams")
        self._m_frame_messages = network.metrics.histogram(
            "totem.frame.messages", unit="")
        self._m_bytes = network.metrics.counter("totem.bytes.broadcast", unit="B")
        self._m_batched = network.metrics.counter(
            "totem.broadcast.batched_deliveries")

    def register(self, member: "TotemMember") -> None:
        self._members[member.name] = member

    def deregister(self, member_name: str) -> None:
        self._members.pop(member_name, None)

    def lookup(self, name: str) -> Optional["TotemMember"]:
        return self._members.get(name)

    # ------------------------------------------------------------------
    # Datagram primitives
    # ------------------------------------------------------------------

    def unicast(self, sender: "TotemMember", target_name: str, message: Any,
                size: int = 64, hold: float = 0.0) -> None:
        """Send ``message`` to one member, after holding it ``hold``
        seconds at the sender (see :meth:`Network.send`)."""
        target = self._members.get(target_name)
        if target is None:
            return
        self.datagrams += 1
        self._m_datagrams.inc()
        self.network.send(
            sender.host, target.host, message, target.receive, size=size,
            hold=hold)

    def broadcast_frame(self, sender: "TotemMember",
                        messages: List[RegularMessage]) -> None:
        """Broadcast ``messages`` (of one token visit, in sequence
        order) as a single datagram as large as they are together."""
        self._m_frame_messages.observe(len(messages))
        size = 0
        for msg in messages:
            size += msg.size_hint
        self.broadcast(sender, Frame(messages), size=size)

    def broadcast(self, sender: "TotemMember", message: Any,
                  size: int = 64) -> None:
        """Send ``message`` to every registered member (including sender).

        Fan-out is one scheduler event per distinct latency — in
        practice two, the sender's loopback and the LAN group — that
        offers the datagram to the group's members in deterministic
        registration order, exactly as the per-member ``send`` loop
        used to interleave them (``Network.broadcast``).
        ``totem.broadcast.batched_deliveries`` counts the per-target
        deliveries scheduled, loopback included, not the events.
        """
        self.broadcasts += 1
        self._m_broadcasts.inc()
        self._m_bytes.inc(size)
        targets = [(target.host, target.receive)
                   for target in self._members.values()]
        self.datagrams += len(targets)
        self._m_datagrams.inc(len(targets))
        events = self.network.broadcast(sender.host, targets, message,
                                        size=size)
        self._m_batched.inc(events)
