"""Direct-call probes: each layer's public functions timed on their own.

No workload runs here — a probe calls one function (or a minimal world)
in a tight loop and reports the median over batches, on the host
clock.  The numbers are advisory: they say what a layer's primitive
costs, the workloads say whether that cost matters end to end.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

from repro import (DuplicateSuppressor, FaultToleranceDomain, GatewayPool,
                   Ior, ReplicationStyle, World)
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.eternal.naming import make_object_key
from repro.iiop.cdr import CdrOutputStream
from repro.iiop.giop import (GiopFramer, ReplyMessage, ReplyStatus,
                             RequestMessage, decode_reply, decode_request,
                             encode_reply, encode_request)
from repro.iiop.ior import stitch_profiles
from repro.iiop.service_context import ClientIdContext
from repro.sim.scheduler import Scheduler
from repro.totem import TotemMember, TotemTransport

BATCHES = 5
CALLS = 4000            # per batch: 20 000 calls per probe
RING_BROADCASTS = 5000
INDOMAIN_OPS = 400


def _us_per_call(fn: Callable[[int], None], calls: int) -> float:
    """Median over batches of the mean microseconds of ``fn(i)``."""
    batches = []
    for batch in range(BATCHES):
        start = time.perf_counter()
        for i in range(batch * calls, (batch + 1) * calls):
            fn(i)
        batches.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(batches)


def _long_body(value: int) -> bytes:
    out = CdrOutputStream()
    out.write_long(value)
    return out.getvalue()


def _iiop(calls: int) -> Dict[str, float]:
    # The request steady_closed sends: an enhanced client's increment
    # on the counter group behind two gateways.
    key = make_object_key("dom", 10)
    request = RequestMessage(
        request_id=7, response_expected=True, object_key=key,
        operation="increment", body=_long_body(5),
        service_contexts=[
            ClientIdContext("client/3", 1).to_service_context()])
    reply = ReplyMessage(request_id=7, status=ReplyStatus.NO_EXCEPTION,
                         body=_long_body(1234))
    pool_ior = stitch_profiles(
        COUNTER_INTERFACE.repo_id,
        [(f"dom-gw{i}", 2809) for i in range(4)], key).to_string()
    wire = encode_request(request)
    framer = GiopFramer()
    return {
        "iiop.request_roundtrip_us": _us_per_call(
            lambda i: decode_request(encode_request(request)), calls),
        "iiop.reply_roundtrip_us": _us_per_call(
            lambda i: decode_reply(encode_reply(reply)), calls),
        "iiop.ior_parse_us": _us_per_call(
            lambda i: Ior.from_string(pool_ior), calls),
        "iiop.framer_feed_us": _us_per_call(
            lambda i: framer.feed(wire), calls),
    }


def _core(calls: int) -> Dict[str, float]:
    world = World(seed=1, trace=False)
    domain = FaultToleranceDomain(world, "dom", num_hosts=3)
    pool = GatewayPool(domain, size=4)
    domain.await_stable()
    group = domain.create_group("Counter", COUNTER_INTERFACE, CounterServant)
    domain.await_ready(group)
    suppressor = DuplicateSuppressor()

    def dup_offer(i: int) -> None:
        suppressor.expect(i)
        for responder in ("h0", "h1", "h2"):
            suppressor.offer(i, b"reply", responder)

    return {
        "core.route_us": _us_per_call(
            lambda i: pool.route(f"probe/{i}#1"), calls),
        "core.pool_ior_us": _us_per_call(
            lambda i: pool.ior_for(group, f"probe/{i}#1"), calls),
        "core.dup_offer_us": _us_per_call(dup_offer, calls),
    }


def _noop() -> None:
    pass


def _sim(calls: int) -> Dict[str, float]:
    def events_per_s(schedule: Callable[[Scheduler, float], None]) -> float:
        rates = []
        for _ in range(BATCHES):
            scheduler = Scheduler()
            start = time.perf_counter()
            for i in range(calls):
                schedule(scheduler, (i % 997) * 1e-4)
            scheduler.run()
            rates.append(calls / (time.perf_counter() - start))
        return statistics.median(rates)

    return {
        "sim.post_events_per_s": events_per_s(
            lambda s, delay: s.post(delay, _noop)),
        "sim.timer_events_per_s": events_per_s(
            lambda s, delay: s.call_after(delay, _noop)),
    }


def _totem(broadcasts: int) -> Dict[str, float]:
    world = World(seed=2, trace=False)
    transport = TotemTransport(world.network, "ring")
    delivered = [0]

    def on_deliver(*_args: object) -> None:
        delivered[0] += 1

    members = []
    for i in range(4):
        member = TotemMember(world.add_host(f"r{i}", site="lan"), f"r{i}",
                             transport)
        member.on_deliver(on_deliver)
        members.append(member)
    for member in members:
        member.start()
    world.scheduler.run_until(
        lambda: all(m.state == TotemMember.OPERATIONAL
                    and len(m.members) == 4 for m in members), timeout=60.0)
    start = time.perf_counter()
    for i in range(broadcasts):
        members[i % 4].multicast(i)
    world.scheduler.run_until(lambda: delivered[0] == 4 * broadcasts,
                              timeout=600.0)
    return {"totem.ring_msgs_per_s":
            broadcasts / (time.perf_counter() - start)}


def _eternal(ops: int) -> Dict[str, float]:
    world = World(seed=3, trace=False)
    domain = FaultToleranceDomain(world, "dom", num_hosts=3)
    domain.await_stable()
    group = domain.create_group("Counter", COUNTER_INTERFACE, CounterServant,
                                style=ReplicationStyle.ACTIVE)
    domain.await_ready(group)
    world.await_promise(group.invoke("increment", 1))
    start = time.perf_counter()
    for _ in range(ops):
        world.await_promise(group.invoke("increment", 1))
    return {"eternal.indomain_ops_per_s":
            ops / (time.perf_counter() - start)}


def run(scale: int = 1) -> Dict[str, float]:
    """Every probe; ``scale`` divides the call counts (``--quick``)."""
    rows: Dict[str, float] = {}
    calls = max(20, CALLS // scale)
    rows.update(_iiop(calls))
    rows.update(_core(calls))
    rows.update(_sim(calls))
    rows.update(_totem(max(40, RING_BROADCASTS // scale)))
    rows.update(_eternal(max(8, INDOMAIN_OPS // scale)))
    return rows
