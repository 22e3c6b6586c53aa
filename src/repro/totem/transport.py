"""Datagram transport and member registry for one Totem domain.

Totem runs over a LAN broadcast medium; here the broadcast is modelled
as one datagram per receiving member, fanned out by the network in one
delivery event per distinct latency (on a LAN ring, one for them all),
which makes every broadcast *atomic with respect to
crashes*: a datagram is either offered to all live members or (if the
sender was already dead) to none.  This matches the paper's fault
model, where message loss comes from processor failure and partition,
not per-link drops.  What is broadcast is a :class:`Frame` (messages
of one token visit), a Join or a Commit: ``totem.broadcasts`` /
``totem.datagrams`` count those, and ``totem.frame.messages`` how many
messages a frame held.  A frame skips its sender, which hears it from
its send path (docs/PROTOCOL.md section 5.2, "The originator's copy").
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..sim.host import Host
from ..sim.network import DeliverFn, Network
from .messages import Frame, RegularMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .member import TotemMember

Target = Tuple[Host, DeliverFn]


class TotemTransport:
    """Names the members of one fault tolerance domain's ring."""

    def __init__(self, network: Network, domain_name: str) -> None:
        self.network = network
        self.domain_name = domain_name
        self._members: Dict[str, "TotemMember"] = {}
        # Fan-out lists, rebuilt at register / deregister, not per
        # broadcast: everyone, and per member everyone else (reached
        # through ``receive_frame``: what goes to them is a frame).
        self._everyone: List[Target] = []
        self._others: Dict[str, List[Target]] = {}
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
        self._refresh_fan_out()

    def deregister(self, member_name: str) -> None:
        self._members.pop(member_name, None)
        self._refresh_fan_out()

    def _refresh_fan_out(self) -> None:
        members = list(self._members.values())
        self._everyone = [(m.host, m.receive) for m in members]
        frames = [(m.host, m.receive_frame) for m in members]
        self._others = {m.name: frames[:i] + frames[i + 1:]
                        for i, m in enumerate(members)}

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
        self._m_datagrams.value += 1
        self.network.send(
            sender.host, target.host, message, target.receive, size=size,
            hold=hold)

    def broadcast_frame(self, sender: "TotemMember",
                        messages: List[RegularMessage]) -> None:
        """Broadcast ``messages`` (of one token visit, in sequence
        order) as a single datagram as large as they are together, to
        every member but ``sender``."""
        self._m_frame_messages.observe(len(messages))
        size = 0
        for msg in messages:
            size += msg.size_hint
        self._fan_out(sender, self._others.get(sender.name, self._everyone),
                      Frame(messages), size)

    def broadcast(self, sender: "TotemMember", message: Any,
                  size: int = 64) -> None:
        """Send a Join or Commit to every member.  Unlike a frame it
        reaches its sender over the wire too: the leader installs its
        new ring when its own Commit arrives, LAN / 10 after sending it,
        and ``totem.ring_recovery_ms`` includes that."""
        self._fan_out(sender, self._everyone, message, size)

    def _fan_out(self, sender: "TotemMember", targets: List[Target],
                 message: Any, size: int) -> None:
        """One scheduler event per distinct latency (``Network.broadcast``)
        offers ``message`` to ``targets`` in registration order.
        ``totem.broadcast.batched_deliveries`` counts the per-target
        deliveries scheduled, not the events."""
        self.broadcasts += 1
        self._m_broadcasts.value += 1
        self._m_bytes.value += size
        self.datagrams += len(targets)
        self._m_datagrams.value += len(targets)
        events = self.network.broadcast(sender.host, targets, message,
                                        size=size)
        self._m_batched.value += events
