"""The Totem single-ring protocol state machine.

Each processor in a fault tolerance domain runs one
:class:`TotemMember`.  The protocol provides what Eternal consumes
(paper section 2): reliable delivery, a single total order across the
domain with system-wide unique, monotonically increasing sequence
numbers (used as identifier timestamps), stability (aru), which frees
each member's retransmission store, and membership change
notifications on processor failure, recovery, and join.

Protocol sketch (a faithful simplification of Totem's single-ring
ordering and membership protocols):

* OPERATIONAL — a token rotates around the ring in member-name order.
  The token holder serves retransmission requests carried on the
  token, assigns sequence numbers to its queued payloads (those not
  withdrawn meanwhile), broadcasts all of that in frames — a quota's
  worth of new messages fits ``FRAMES_PER_VISIT`` datagrams, however
  large the quota (docs/PROTOCOL.md section 5.2) — folds its
  received-up-to into the token's aru, and forwards the token.  Token
  receipt re-arms a loss timer.
  The token moves only while there is something to order
  (docs/PROTOCOL.md section 5.1): it counts consecutive *idle* visits,
  and the member at which the count reaches the ring size **parks**
  it — everyone was just seen to hold everything up to ``seq``, so
  ``aru = seq``.  A parked holder that multicasts runs its visit at
  once; any other member knows from the count on the last token it
  forwarded where that token parks, and sends a ``TokenWanted`` there.
  The holder hands the token, count zero, *directly* to the nearest
  requester in ring order.  The jump cannot advance ``aru`` past a
  skipped member: the park pinned ``aru_candidate`` to ``aru``, and the
  fresh count forces a full rotation before the next park.  With nobody
  asking, the holder releases a keep-alive rotation every
  ``token_loss_timeout / 12``: loss timers stay fed, and a dead member
  still swallows the token.  (A twelfth, not a half: an idle ring then
  costs two thirds of what a busy one does, so what a run costs depends
  little on how its requests happen to bunch — docs/PERFORMANCE.md.)
* GATHER — entered on token loss, on hearing a foreign Join, or at
  start-up.  Members broadcast Join messages naming the candidates they
  have heard from; after the gather window the lowest-named candidate
  acts as leader, broadcasts a Commit carrying the new ring identity,
  sorted membership and a starting sequence number (the maximum any
  member has seen, so sequence numbers never regress), and regenerates
  the token.

Delivery is *agreed*: a member delivers messages in sequence order with
no gaps.  Gaps are repaired via token retransmission requests; a gap
whose message no longer exists anywhere (its sender crashed before the
broadcast reached any survivor) is skipped after a bounded number of
token rotations and traced as ``totem.gap_skipped`` — the membership
change is the consistency cut, as in virtually synchronous systems.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..sim.host import Host, Process
from ..sim.scheduler import Timer
from .messages import (
    CommitMessage,
    Frame,
    INITIAL_RING,
    JoinMessage,
    RegularMessage,
    RingId,
    Token,
    TokenWanted,
)
from .transport import TotemTransport

#: Datagrams of new messages one token visit may put on the LAN: a frame
#: holds ceil(quota / FRAMES_PER_VISIT) messages, so one at the default
#: quota (docs/PROTOCOL.md section 5.2 says why the default must not pack).
FRAMES_PER_VISIT = 16
#: Wait before re-gathering when excluded from a new ring (simulated s).
REJOIN_BACKOFF = 0.005

# ``TotemMember.stats`` key -> the world counter that sums it over every
# ring member.
_STATS = {
    "delivered": "totem.msg.delivered",
    "sent": "totem.msg.sent",
    "withdrawn": "totem.msg.withdrawn",
    "token_passes": "totem.token.passes",
    "rotations": "totem.token.rotation",
    "reformations": "totem.ring.reformations",
    "retransmits": "totem.retransmit.count",
    "gaps_skipped": "totem.gap.skipped",
    "token_losses": "totem.token.loss",
    "parks": "totem.token.parked",
    "tokens_wanted": "totem.token.wanted",
    "handoffs": "totem.token.handoffs",
    "keepalives": "totem.token.keepalives",
}

DeliverFn = Callable[[int, str, Any], None]
MembershipFn = Callable[[Tuple[str, ...], RingId], None]


@dataclass
class TotemConfig:
    """Protocol timing and flow-control knobs (simulated seconds)."""

    token_hold: float = 0.0002          # processing delay before forwarding
    token_loss_timeout: float = 0.025   # silence before declaring token lost
    gather_timeout: float = 0.010       # join-collection window
    max_messages_per_token: int = 16    # flow control: sends per token visit
    gap_give_up_rotations: int = 8      # rotations before skipping a dead gap


class Queued:
    """One send-queue entry, handed back by :meth:`TotemMember.multicast`.

    ``queued`` is true from ``multicast`` until the entry is sequenced
    at a token visit or withdrawn, whichever comes first."""

    __slots__ = ("payload", "size", "queued")

    def __init__(self, payload: Any, size: int) -> None:
        self.payload = payload
        self.size = size
        self.queued = True


class TotemMember(Process):
    """One ring member; see module docstring for the protocol."""

    OPERATIONAL = "operational"
    GATHER = "gather"

    def __init__(
        self,
        host: Host,
        name: str,
        transport: TotemTransport,
        config: Optional[TotemConfig] = None,
    ) -> None:
        super().__init__(host, name)
        self.transport = transport
        self.config = config or TotemConfig()

        self.state = TotemMember.GATHER
        self.ring_id: RingId = INITIAL_RING
        self.members: Tuple[str, ...] = ()
        self._index = 0                    # own position in members
        self._gc_floor = 0                 # _store GC'd up to this seq

        # Ordering state.
        self.delivered_up_to = 0           # highest contiguously delivered seq
        self._buffer: Dict[int, RegularMessage] = {}   # undelivered, seq > aru
        self._store: Dict[int, RegularMessage] = {}    # for retransmission, GC'd at aru
        self._gap_age: Dict[int, int] = {}             # seq -> rotations waited
        self._pending: Deque[Queued] = deque()         # send queue, FIFO

        # Idle-token state (dropped at reformation).
        self._parked: Optional[Token] = None   # the token, while it rests here
        self._parked_since = 0.0
        self._parked_seq = -1                  # token.seq at our last park
        self._wanted: Set[str] = set()         # members that asked us for it
        self._park_at: Optional[str] = None    # where our last token parks
        self._keepalive_timer: Optional[Timer] = None

        # Gather state.
        self._candidates: Set[str] = set()
        self._gather_max_seq = 0
        self._max_ring_gen = 0
        self._gather_timer: Optional[Timer] = None
        self._loss_timer: Optional[Timer] = None

        # Listener callbacks (upper layer: Eternal Replication Mechanisms),
        # fixed at wiring time: tuples, so delivery iterates them uncopied.
        self._deliver_listeners: Tuple[DeliverFn, ...] = ()
        self._membership_listeners: Tuple[MembershipFn, ...] = ()

        # Exact-type dispatch table for :meth:`receive` (hot path).
        # reprolint: disable=AUD001 -- fixed message-type table, never grows
        self._dispatch = {
            Frame: self._on_frame,
            Token: self._on_token,
            TokenWanted: self._on_wanted,
            JoinMessage: self._on_join,
            CommitMessage: self._on_commit,
        }

        # Statistics, summed world-wide by the registry.
        self.stats = dict.fromkeys(_STATS, 0)
        m = self.metrics
        m.register_stats(self.stats, _STATS)
        self._m_parked_time = m.histogram("totem.token.parked_time", unit="s")
        self._m_detect_latency = m.histogram("fault.detection.latency", unit="s")

        self._register_audit()

    def _register_audit(self) -> None:
        """Declare the ordering-state collections to the world audit
        scope (see :mod:`repro.obs.audit`).  A quiescent operational
        ring parks its token, which sets ``aru = seq`` — at the holder at
        once, elsewhere at the next keep-alive rotation — so every buffer
        drains: regular messages deliver (``_buffer``), get GC'd from the
        retransmission store at aru (``_store``), gaps resolve or are
        skipped before the token may park (``_gap_age``), requests for it
        are served or dropped at the holder's next visit (``_wanted``);
        anything left at quiescence is a leak."""
        scope, owner = self.audit, self.name

        def alive() -> bool:
            return self.alive

        scope.register("totem.buffer", lambda: len(self._buffer),
                       floor=0, owner=owner, active=alive,
                       gauge="totem.state.buffer")
        scope.register("totem.store", lambda: len(self._store),
                       floor=0, owner=owner, active=alive,
                       gauge="totem.state.store")
        scope.register("totem.gap_age", lambda: len(self._gap_age),
                       floor=0, owner=owner, active=alive)
        scope.register("totem.pending",
                       lambda: sum(e.queued for e in self._pending),
                       floor=0, owner=owner, active=alive,
                       gauge="totem.state.pending")
        scope.register("totem.wanted", lambda: len(self._wanted),
                       floor=0, owner=owner, active=alive)
        # Gather scratch: holds the last gather's candidate set while
        # operational (it is overwritten, not cleared), so it is
        # snapshot-only — bounded by domain size, never a leak signal.
        scope.register("totem.candidates", lambda: len(self._candidates),
                       floor=None, owner=owner, active=alive)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def on_deliver(self, fn: DeliverFn) -> None:
        """Register ``fn(seq, sender_name, payload)`` called in total order."""
        self._deliver_listeners += (fn,)

    def on_membership(self, fn: MembershipFn) -> None:
        """Register ``fn(members, ring_id)`` called at each installation."""
        self._membership_listeners += (fn,)

    def multicast(self, payload: Any, size: int = 64) -> Queued:
        """Queue ``payload`` for totally-ordered broadcast to the ring.

        The returned entry can be handed to :meth:`withdraw` for as
        long as it has not been sequenced."""
        entry = Queued(payload, size)
        self._pending.append(entry)
        if self._parked is not None:
            self._on_token(self._unpark("send"), from_send=True)
        elif self._park_at is not None:
            # Ask once: the answer is a token visit, which renews _park_at.
            target, self._park_at = self._park_at, None
            self.stats["tokens_wanted"] += 1
            self.transport.unicast(
                self, target, TokenWanted(self.name, self.ring_id), size=24)
        return entry

    def withdraw(self, entry: Queued) -> bool:
        """Take a queued payload back before it is sequenced.

        True if ``entry`` was still waiting for the token: it will take
        no sequence number, no flow-control quota and no broadcast.
        False if it was already sequenced (or withdrawn) — too late,
        the caller's message is on the ring.  O(1): the entry stays in
        the deque as a tombstone and is dropped when it surfaces."""
        if not entry.queued:
            return False
        entry.queued = False
        self.stats["withdrawn"] += 1
        return True

    @property
    def pending_count(self) -> int:
        """Payloads still waiting to be sequenced (withdrawn ones are
        not waiting for anything)."""
        return sum(e.queued for e in self._pending)

    @property
    def parked(self) -> bool:
        """True while the idle token rests at this (live) member."""
        return self._parked is not None and self.alive

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def handle_start(self) -> None:
        self.transport.register(self)
        self._enter_gather("start")

    def handle_stop(self) -> None:
        self.transport.deregister(self.name)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def receive(self, message: Any) -> None:
        if not (self.running and self.host.alive):
            return
        # The five datagram classes are final, so exact-type dispatch is
        # equivalent to the isinstance chain and constant-time.
        handler = self._dispatch.get(type(message))
        if handler is not None:
            handler(message)

    def receive_frame(self, frame: Frame) -> None:
        """:meth:`receive` for a datagram known to be a frame: the
        transport's frame fan-out delivers through it, one call short."""
        if self.running and self.host.alive:
            self._on_frame(frame)

    # ------------------------------------------------------------------
    # Operational: regular messages
    # ------------------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        """Take a frame's messages in sequence order, each on its own
        terms: stale-ring and duplicate ones are dropped singly."""
        for msg in frame.messages:
            if msg.ring_id != self.ring_id:
                continue
            self._park_at = None  # someone sent: the token is on a full rotation
            if msg.seq <= self.delivered_up_to or msg.seq in self._buffer:
                continue  # duplicate (retransmission already received)
            self._buffer[msg.seq] = msg
            self._store[msg.seq] = msg
            self._try_deliver()
            if not (self.running and self.host.alive):
                return  # a listener crashed this host: the rest is lost

    def _try_deliver(self) -> None:
        while self.delivered_up_to + 1 in self._buffer:
            seq = self.delivered_up_to + 1
            msg = self._buffer.pop(seq)
            self.delivered_up_to = seq
            self._gap_age.pop(seq, None)
            self.stats["delivered"] += 1
            for fn in self._deliver_listeners:
                fn(seq, msg.sender, msg.payload)
            if not (self.running and self.host.alive):
                return  # a listener crashed this host

    # ------------------------------------------------------------------
    # Operational: token handling
    # ------------------------------------------------------------------

    def _on_token(self, token: Token, from_send: bool = False) -> None:
        """One token visit; ``from_send`` when run inside multicast()."""
        if self.state != TotemMember.OPERATIONAL or token.ring_id != self.ring_id:
            return
        self.stats["token_passes"] += 1
        # Operational, so the loss timer is pending: move it in place.
        loss = self._loss_timer
        assert loss is not None
        sched = self.host.scheduler
        sched.reschedule(loss, sched.now + self.config.token_loss_timeout)
        self._park_at = None    # the token is here: nobody to ask
        arrived_seq = token.seq
        repairing = bool(token.rtr)

        # 1. Serve retransmission requests we can satisfy.
        frame: List[RegularMessage] = []   # what this visit broadcasts, in order
        if repairing:
            for seq in sorted(token.rtr):
                stored = self._store.get(seq)
                if stored is not None:
                    token.rtr.discard(seq)
                    self.stats["retransmits"] += 1
                    frame.append(stored)

        # 2. Request retransmission of our own gaps; age them out when
        #    nobody can serve them (sender crashed pre-broadcast).  The
        #    guard mirrors _current_gaps' empty case so the idle
        #    rotation does not pay for the call.
        if self._buffer or token.seq > self.delivered_up_to:
            for seq in self._current_gaps(token.seq):
                age = self._gap_age.get(seq, 0) + 1
                self._gap_age[seq] = age
                if age > self.config.gap_give_up_rotations:
                    self._skip_gap(seq)
                else:
                    token.rtr.add(seq)

        # 3. Sequence queued payloads under flow control; send the frames.
        pending = self._pending
        if pending:
            quota = self.config.max_messages_per_token
            while pending and quota > 0:
                entry = pending.popleft()
                if not entry.queued:
                    continue  # withdrawn while it waited
                entry.queued = False
                token.seq += 1
                frame.append(RegularMessage(self.ring_id, token.seq, self.name,
                                            entry.payload, entry.size))
                self.stats["sent"] += 1
                quota -= 1
        if frame:
            per_frame = -(-self.config.max_messages_per_token
                          // FRAMES_PER_VISIT)
            for first in range(0, len(frame), per_frame):
                self.transport.broadcast_frame(
                    self, frame[first:first + per_frame])

        # 4. Stability: aru is the minimum received-up-to over the
        #    previous full rotation, folded at the ring leader.
        my_aru = self.delivered_up_to
        if my_aru < token.aru_candidate:
            token.aru_candidate = my_aru
        if self._index == 0:
            self.stats["rotations"] += 1
            if token.aru_candidate > token.aru:
                token.aru = token.aru_candidate
            token.aru_candidate = my_aru
        #    A full rotation of idle visits (nothing sequenced, asked for
        #    or missing) proves everyone holds everything up to seq: stable.
        if repairing or token.seq != arrived_seq or my_aru != arrived_seq:
            token.idle = 0
        else:
            token.idle += 1
        ring_size = len(self.members)
        if token.idle >= ring_size:
            token.aru = token.aru_candidate = token.seq
        # Every member truncates its retransmission store at stability:
        # messages at or below aru have been received everywhere.
        aru = token.aru
        if aru > self._gc_floor:
            self._gc_store(aru)
        if pending:
            token.idle = 0  # over quota: the rest waits for the next visit

        # 5. After a full idle rotation the token stops here: handed to
        #    whoever asked for it, or parked until somebody does.  At any
        #    other visit a request is stale: the rotation serves its sender.
        #    (A visit that sent zeroed the idle count: none gets here.)
        if token.idle >= ring_size:
            (self._hand_off if self._wanted else self._park)(token)
            return
        self._wanted.clear()
        if token.idle:
            self._park_at = self.members[(self._index - token.idle) % ring_size]

        # 6. Forward to the ring successor after the hold time.
        self._forward_token(token, self.config.token_hold)

        # 7. Hear what we broadcast, which the LAN does not bring back:
        #    now, or from a fresh event if inside multicast()
        #    (docs/PROTOCOL.md 5.2, "The originator's copy").
        if frame:
            if from_send:
                self.soon(self._on_frame, Frame(frame))
            else:
                self._on_frame(Frame(frame))

    def _forward_token(self, token: Token, hold: float = 0.0) -> None:
        """Pass the token on.  The hold time is spent inside the
        datagram — one scheduler event per hop, not a timer and then a
        delivery.  A host that crashes while holding it still takes it
        down; a member that leaves the ring meanwhile says so by
        broadcast, which overtakes the token, so it is dropped on
        arrival."""
        successor = self.members[(self._index + 1) % len(self.members)]
        if successor == self.name:
            # Singleton ring: re-process our own token after a beat.
            self.after(hold + self.config.token_hold, self._on_token, token)
        else:
            self.transport.unicast(self, successor, token, size=32, hold=hold)

    def _park(self, token: Token) -> None:
        """Keep the idle token until somebody wants it, or for a twelfth
        of the loss timeout: then a keep-alive rotation feeds every loss
        timer."""
        self._parked = token
        self._parked_since = self.scheduler.now
        self.stats["parks"] += 1
        fl = self.flight
        if fl.enabled and token.seq != self._parked_seq:
            # Coming back from a keep-alive rotation is not news.
            self._parked_seq = token.seq
            fl.record("flight.token_parked", member=self.name,
                      ring=str(self.ring_id), seq=token.seq)
        self._keepalive_timer = self.after(
            self.config.token_loss_timeout / 12, self._on_keepalive)

    def _unpark(self, why: str) -> Token:
        """Take the parked token up again; a token that leaves other than
        by its keep-alive cancels that."""
        token, self._parked = self._parked, None
        if why != "keepalive" and self._keepalive_timer is not None:
            self._keepalive_timer.cancel()
        self._m_parked_time.observe(self.scheduler.now - self._parked_since)
        fl = self.flight
        if fl.enabled and why != "keepalive":
            fl.record("flight.token_released", member=self.name,
                      ring=str(self.ring_id), why=why)
        return token

    def _on_keepalive(self) -> None:
        self.stats["keepalives"] += 1
        token = self._unpark("keepalive")
        token.idle = 0   # a full rotation, then park again
        self._forward_token(token)

    def _on_wanted(self, msg: TokenWanted) -> None:
        if self.state != TotemMember.OPERATIONAL \
                or msg.ring_id != self.ring_id or msg.sender not in self.members:
            return
        if self._parked is not None and not self._wanted:
            # Decide once this instant's arrivals are in: nearest first,
            # whatever order the LAN delivered them in.
            self.soon(self._serve_wanted)
        self._wanted.add(msg.sender)

    def _serve_wanted(self) -> None:
        if self._parked is not None and self._wanted:
            self._hand_off(self._unpark("handoff"))

    def _hand_off(self, token: Token) -> None:
        """Send the idle token straight to the nearest requester in ring
        order; the rotation from there serves the others in turn."""
        position, size = self.members.index, len(self.members)
        target = min(self._wanted,
                     key=lambda name: (position(name) - self._index) % size)
        self._wanted.clear()
        token.idle = 0
        self.stats["handoffs"] += 1
        self.transport.unicast(self, target, token, size=32)

    def _current_gaps(self, highest: int) -> List[int]:
        if not self._buffer and highest <= self.delivered_up_to:
            return []
        upper = max([highest] + list(self._buffer))
        return [s for s in range(self.delivered_up_to + 1, upper + 1)
                if s not in self._buffer]

    def _skip_gap(self, seq: int) -> None:
        """Abandon an unrecoverable gap (consistency cut at failure)."""
        if seq != self.delivered_up_to + 1:
            return  # only skip at the delivery frontier
        self.stats["gaps_skipped"] += 1
        self._gap_age.pop(seq, None)
        fl = self.flight
        if fl.enabled:
            fl.record("flight.totem_drop", member=self.name, cause="gap",
                      first_seq=seq, count=1)
        self.delivered_up_to = seq
        self._try_deliver()

    def _gc_store(self, aru: int) -> None:
        # Everything at or below the floor was already collected, and
        # within a ring no message at seq <= a past aru can re-enter the
        # store (``_on_frame`` rejects seq <= delivered_up_to >= aru),
        # so an unchanged aru means there is nothing to scan for.
        if aru <= self._gc_floor:
            return
        # Sequence numbers are contiguous; a skipped gap was never stored.
        for seq in range(self._gc_floor + 1, aru + 1):
            self._store.pop(seq, None)
        self._gc_floor = aru

    def _on_token_loss(self) -> None:
        if self.state != TotemMember.OPERATIONAL:
            return
        self.stats["token_losses"] += 1
        fl = self.flight
        if fl.enabled:
            fl.record("flight.token_loss", member=self.name,
                      ring=str(self.ring_id))
        self._observe_detection_latency()
        self._enter_gather("token loss")

    def _observe_detection_latency(self) -> None:
        """Measure crash-to-detection time at the token-loss timeout.

        Token loss is Totem's failure detector: the elapsed time since
        the most recent crash among current ring members is the latency
        with which this member detected that crash."""
        hosts = self.host.network.hosts
        crash_times = [
            hosts[name].last_crash_at
            for name in self.members
            if name in hosts and not hosts[name].alive
            and hosts[name].last_crash_at is not None
        ]
        if crash_times:
            self._m_detect_latency.observe(self.scheduler.now - max(crash_times))

    # ------------------------------------------------------------------
    # Membership: gather and commit
    # ------------------------------------------------------------------

    def _drop_idle_token(self) -> None:
        """The old ring's token, and what we knew of it, die with it."""
        if self._parked is not None:
            self._unpark("reformation")
        self._wanted.clear()
        self._park_at = None

    def _enter_gather(self, reason: str) -> None:
        self.state = TotemMember.GATHER
        self._drop_idle_token()
        if self._loss_timer is not None:
            self._loss_timer.cancel()
            self._loss_timer = None
        self._candidates = {self.name}
        self._gather_max_seq = self._highest_seen()
        self._max_ring_gen = max(self._max_ring_gen, self.ring_id[0])
        self._broadcast_join()
        self._restart_gather_timer()

    def _broadcast_join(self) -> None:
        join = JoinMessage(
            sender=self.name,
            ring_id=self.ring_id,
            candidates=frozenset(self._candidates),
            max_seq=self._highest_seen(),
        )
        self.transport.broadcast(self, join, size=48)

    def _restart_gather_timer(self) -> None:
        # Restarted on every join received while gathering: same
        # in-place fast path as the token loss timer.
        self._gather_timer = self.reschedule_after(
            self._gather_timer, self.config.gather_timeout,
            self._on_gather_complete)

    def _highest_seen(self) -> int:
        if self._buffer:
            return max(self.delivered_up_to, max(self._buffer))
        return self.delivered_up_to

    def _on_join(self, join: JoinMessage) -> None:
        if self.state == TotemMember.OPERATIONAL:
            if join.sender in self.members and join.ring_id == self.ring_id:
                # A current member lost the token: reform.
                self._enter_gather(f"join from member {join.sender}")
            elif join.sender not in self.members:
                # A new or recovered processor wants in: reform.
                self._enter_gather(f"join from newcomer {join.sender}")
            else:
                return
        # GATHER state: merge candidate knowledge.
        before = set(self._candidates)
        self._candidates.add(join.sender)
        self._candidates.update(join.candidates)
        self._gather_max_seq = max(self._gather_max_seq, join.max_seq)
        self._max_ring_gen = max(self._max_ring_gen, join.ring_id[0])
        if self._candidates != before:
            # New information: re-announce and extend the window so that
            # everyone converges on the same candidate set.
            self._broadcast_join()
            self._restart_gather_timer()

    def _on_gather_complete(self) -> None:
        if self.state != TotemMember.GATHER:
            return
        members = tuple(sorted(self._candidates))
        leader = members[0]
        if leader != self.name:
            # Wait for the leader's commit; if it never comes (leader
            # died during gather), the retry timer re-enters gather.
            self._gather_timer = self.after(
                self.config.gather_timeout + REJOIN_BACKOFF,
                self._commit_wait_expired)
            return
        ring_id: RingId = (self._max_ring_gen + 1, leader)
        commit = CommitMessage(
            ring_id=ring_id,
            members=members,
            start_seq=self._gather_max_seq,
            leader=leader,
        )
        self.transport.broadcast(self, commit, size=64)

    def _commit_wait_expired(self) -> None:
        if self.state == TotemMember.GATHER:
            self._enter_gather("commit wait expired")

    def _on_commit(self, commit: CommitMessage) -> None:
        if commit.ring_id[0] <= self.ring_id[0] and self.ring_id != INITIAL_RING:
            return  # stale commit
        if self.name not in commit.members:
            # Excluded (our join raced the gather): try again shortly.
            if self.state == TotemMember.GATHER:
                self.after(REJOIN_BACKOFF, self._rejoin)
            return
        if commit.start_seq < self._highest_seen():
            # The leader never saw our join information; installing would
            # recycle sequence numbers we already hold.  Force a new round.
            self._enter_gather("commit below local horizon")
            return
        self._install(commit)

    def _rejoin(self) -> None:
        if self.state == TotemMember.GATHER:
            self._enter_gather("rejoin after exclusion")

    def _install(self, commit: CommitMessage) -> None:
        if self._gather_timer is not None:
            self._gather_timer.cancel()
            self._gather_timer = None
        # Deliver whatever we still hold from the old ring, in order,
        # then cut at the membership change.
        self._flush_old_ring(commit.start_seq)
        self.state = TotemMember.OPERATIONAL
        self.ring_id = commit.ring_id
        self.members = commit.members
        self._index = commit.members.index(self.name)
        self._drop_idle_token()
        self._gc_floor = commit.start_seq   # _store is empty: flushed at the cut
        self._max_ring_gen = commit.ring_id[0]
        self._gap_age.clear()
        self.stats["reformations"] += 1
        fl = self.flight
        if fl.enabled:
            fl.record("flight.membership", member=self.name,
                      ring=str(commit.ring_id),
                      members=",".join(commit.members),
                      start_seq=commit.start_seq)
        for fn in self._membership_listeners:
            fn(self.members, self.ring_id)
        # Armed here, moved in place at every token visit (_on_token).
        self._loss_timer = self.reschedule_after(
            self._loss_timer, self.config.token_loss_timeout,
            self._on_token_loss)
        if commit.leader == self.name:
            token = Token(
                ring_id=commit.ring_id,
                seq=commit.start_seq,
                aru=commit.start_seq,
                aru_candidate=commit.start_seq,
            )
            self.soon(self._on_token, token)

    def _flush_old_ring(self, start_seq: int) -> None:
        """Deliver buffered old-ring messages up to the cut, then reset."""
        for seq in sorted(self._buffer):
            if seq > start_seq:
                break
            if seq == self.delivered_up_to + 1:
                self._try_deliver()
        if self._buffer:
            # Anything still buffered is either below the cut with an
            # unrepairable gap in front of it (lost with its crashed
            # sender, consistently across survivors thanks to atomic
            # broadcasts) or stale old-ring traffic; both are dropped.
            fl = self.flight
            if fl.enabled:
                fl.record("flight.totem_drop", member=self.name, cause="cut",
                          first_seq=min(self._buffer),
                          count=len(self._buffer))
            self._buffer.clear()
        if self.delivered_up_to < start_seq:
            self.delivered_up_to = start_seq
        self._store.clear()
