"""The egress is an enhanced client (section 3.5) toward the next domain.

A replicated caller's cross-domain calls leave through one
:class:`~repro.core.client_interceptor.FtRequester` on its egress host,
so a remote gateway crash is survived on the warm standby, and counted
where every other client failover is counted.  One-way calls are sent
best-effort and leave nothing behind.
"""

from repro import NestedCall, Servant, World
from repro.apps import (
    COUNTER_INTERFACE,
    CounterServant,
    SETTLEMENT_INTERFACE,
    SettlementServant,
)
from repro.errors import CorbaSystemException
from repro.iiop import TC_LONG, TC_STRING
from repro.orb import Interface, Operation, Param

from tests.helpers import EVENTS, EventSinkServant, make_domain
from tests.test_egress import CALLER
from tests.test_multidomain import build_two_domains, sb_customer
from tests.test_standby_failover import ONE_WAY

# The cold reconnect's extra delay over a healthy cross-domain buy when
# LA gateway 0 crashes 50 ms into the call (seed 7), before the egress
# had a standby: the reset, then a TCP handshake across the WAN, then
# the reissue.
COLD_EXTRA = 0.1252
CRASH_OFFSET = 0.050

NOTIFIER = Interface("Notifier", [
    Operation("notify", [Param("note", TC_STRING)], TC_LONG),
])
FANOUT = Interface("Fanout", [
    Operation("settle_one", [Param("amount", TC_LONG)], TC_LONG),
    Operation("count_one", [Param("amount", TC_LONG)], TC_LONG),
])


def timed_buy(crash_la_gateway):
    """Seconds a warm-egress ``buy`` takes, with LA gateway 0 crashed
    ``CRASH_OFFSET`` into it or not; and the world and domains."""
    world = World(seed=7, flight=True)
    la, ny, settlement, _, desk = build_two_domains(world, la_gateways=2)
    stub, _ = sb_customer(world, ny, desk)
    world.await_promise(stub.call("buy", "alice", "ACME", 1), timeout=600)
    world.run(until=world.now + 0.5)
    started = world.now
    promise = stub.call("buy", "alice", "ACME", 2)
    if crash_la_gateway:
        world.scheduler.call_after(CRASH_OFFSET, world.faults.crash_now,
                                   la.gateways[0].host.name)
    assert world.await_promise(promise, timeout=600) == 3
    elapsed = world.now - started
    world.run(until=world.now + 1.0)
    return elapsed, world, la, ny, settlement, desk


def test_la_gateway_crash_mid_call_fails_over_on_the_egress_standby():
    healthy, *_ = timed_buy(crash_la_gateway=False)
    elapsed, world, la, ny, settlement, desk = timed_buy(crash_la_gateway=True)
    counts = {rm.replicas[settlement.group_id].servant.settled_count()
              for rm in la.rms.values()
              if settlement.group_id in rm.replicas and rm.alive}
    assert counts == {2}                       # each buy settled exactly once
    assert world.metrics.value("client.failover.standby") >= 1
    uid = f"egress/ny/g{desk.group_id}"
    records = world.flight.events("flight.failover")
    assert any(r["detail"]["client"] == uid
               and r["detail"]["path"] == "standby" for r in records)
    # The standby was already open: the failover saves the WAN handshake
    # (two one-way hops) the cold reconnect paid, to within a ring hop.
    extra = elapsed - healthy
    assert COLD_EXTRA - extra >= 2 * ONE_WAY - 0.001
    world.audit(strict=True)


def test_concurrent_calls_to_two_iors_behind_one_gateway_all_return():
    """One egress uid calls two groups behind one remote gateway at
    once: the gateway routes each reply by (server group, client id),
    so every call returns its own value."""
    world = World(seed=9)
    remote = make_domain(world, name="remote", gateways=1)
    settlement = remote.create_group("Settlement", SETTLEMENT_INTERFACE,
                                     SettlementServant)
    counter = remote.create_group("Counter", COUNTER_INTERFACE,
                                  CounterServant)
    remote.await_ready(settlement)
    remote.await_ready(counter)
    settle_ior = remote.ior_for(settlement).to_string()
    count_ior = remote.ior_for(counter).to_string()
    local = make_domain(world, name="local")
    local.register_interface(SETTLEMENT_INTERFACE)
    local.register_interface(COUNTER_INTERFACE)

    class FanoutServant(Servant):
        interface = FANOUT

        def settle_one(self, amount):
            return (yield NestedCall(settle_ior, "settle", ["x", amount],
                                     interface="Settlement"))

        def count_one(self, amount):
            return (yield NestedCall(count_ior, "increment", [amount],
                                     interface="Counter"))

    caller = local.create_group("Fanout", FANOUT, FanoutServant)
    promises = [caller.invoke(op, 1) for _ in range(4)
                for op in ("settle_one", "count_one")]
    world.run_until_done(promises, timeout=30)
    assert [p.result() for p in promises] == [1, 1, 2, 2, 3, 3, 4, 4]
    world.run(until=world.now + 1.0)
    world.audit(strict=True)


def test_remote_system_exception_crosses_the_egress_under_its_own_id():
    """The egress hands its caller what the requester decoded, encoded
    again: a remote TRANSIENT must come out as TRANSIENT, not as the
    base class's name."""
    world = World(seed=5)
    remote = make_domain(world, name="remote", gateways=1)
    settlement = remote.create_group("Settlement", SETTLEMENT_INTERFACE,
                                     SettlementServant)
    remote.await_ready(settlement)
    ior = remote.ior_for(settlement).to_string()
    for host in settlement.info().placement:
        world.faults.crash_now(host)
    world.run(until=world.now + 1.0)
    local = make_domain(world, name="local")
    local.register_interface(SETTLEMENT_INTERFACE)
    seen = set()

    class CatchingServant(Servant):
        interface = CALLER

        def call_out(self, amount):
            try:
                yield NestedCall(ior, "settle", ["x", amount],
                                 interface="Settlement")
            except CorbaSystemException as exc:
                seen.add(str(exc))
            return -1

    caller = local.create_group("Caller", CALLER, CatchingServant)
    assert world.await_promise(caller.invoke("call_out", 3), timeout=120) == -1
    assert seen == {"IDL:omg.org/CORBA/TransientError:1.0"}


def test_oneway_cross_domain_call_resumes_at_once_and_leaves_nothing():
    """A one-way call used to register a wait and an egress record that
    no reply would ever end: the remote sink got the note, but the
    caller hung and every local host leaked the wait."""
    world = World(seed=3)
    remote = make_domain(world, name="remote", gateways=1)
    sink = remote.create_group("Events", EVENTS, EventSinkServant)
    remote.await_ready(sink)
    ior = remote.ior_for(sink).to_string()
    local = make_domain(world, name="local")
    local.register_interface(EVENTS)

    class NotifierServant(Servant):
        interface = NOTIFIER

        def notify(self, note):
            result = yield NestedCall(ior, "emit", [note],
                                      interface="EventSink")
            return 0 if result is None else -1

    caller = local.create_group("Notifier", NOTIFIER, NotifierServant)
    assert world.await_promise(caller.invoke("notify", "x"), timeout=60) == 0
    world.run(until=world.now + 1.0)
    notes = [rm.replicas[sink.group_id].servant.notes
             for rm in remote.rms.values() if sink.group_id in rm.replicas]
    assert notes == [["x"]] * 3                # sent once, by the egress host
    assert sum(e.stats["issued"] for e in local.egresses.values()) == 1
    assert not any(e.outstanding for e in local.egresses.values())
    world.audit(strict=True)
