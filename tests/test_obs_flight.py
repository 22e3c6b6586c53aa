"""Flight-recorder tests: ring semantics, hook coverage, determinism.

The black box must be (a) purely passive — arming it, and arming the
event-driven series registry, never changes the simulated schedule —
and (b) deterministic: the same seeded scenario dumps byte-identical
series and flight JSON across reruns.
"""

from __future__ import annotations

import pytest

from repro import FtClientLayer, Orb, ReplicationStyle, World
from repro.apps import COUNTER_INTERFACE
from repro.errors import ConfigurationError
from repro.obs import FlightRecorder

from tests.helpers import make_counter_group, make_domain


# ----------------------------------------------------------------------
# Ring semantics
# ----------------------------------------------------------------------

def test_disabled_recorder_is_inert():
    recorder = FlightRecorder(enabled=False)
    recorder.record("flight.fault", action="crash")
    assert recorder.recorded == 0
    assert recorder.events() == []


def test_record_orders_and_validates():
    clock = [0.0]
    recorder = FlightRecorder(clock=lambda: clock[0], enabled=True)
    recorder.record("flight.fault", action="crash", target="h0")
    clock[0] = 1.5
    recorder.record("flight.membership", member="h1")
    events = recorder.events()
    assert [e["seq"] for e in events] == [1, 2]
    assert events[0]["t"] == 0.0 and events[1]["t"] == 1.5
    assert events[0]["detail"] == {"action": "crash", "target": "h0"}
    assert recorder.events("flight.membership") == [events[1]]
    with pytest.raises(ConfigurationError):
        recorder.record("Not A Valid Kind")


def test_ring_bounds_and_dump():
    recorder = FlightRecorder(enabled=True, capacity=3)
    for i in range(5):
        recorder.record("flight.fault", action=str(i))
    assert recorder.recorded == 5
    assert recorder.dropped == 2
    # The ring keeps the *last* capacity events, oldest first.
    assert [e["detail"]["action"] for e in recorder.events()] == \
        ["2", "3", "4"]
    dump = recorder.dump()
    assert dump["schema"] == 1
    assert dump["capacity"] == 3
    assert dump["recorded"] == 5 and dump["dropped"] == 2
    assert len(dump["events"]) == 3
    assert '"schema":1' in recorder.dump_json()
    recorder.clear()
    assert recorder.recorded == 0 and recorder.events() == []


# ----------------------------------------------------------------------
# Hook coverage and determinism on a failover scenario
# ----------------------------------------------------------------------

def run_failover(seed=91, armed=True, spans=True):
    """Gateway failover with the black box armed (and the inert
    ``series`` keyword passed, as the benchmark's armed pass does).

    ``spans`` is separate from ``armed`` because the causal tracer
    records its own metrics when enabled — the perturbation test below
    must hold tracing constant while toggling series + flight.
    """
    world = World(seed=seed, trace_spans=spans, series=armed, flight=armed)
    domain = make_domain(world, num_hosts=4, gateways=2)
    group = make_counter_group(domain, replicas=3, min_replicas=2)
    host = world.add_host("browser")
    orb = Orb(world, host, request_timeout=None)
    layer = FtClientLayer(orb, client_uid="flight")
    stub = layer.string_to_object(domain.ior_for(group).to_string(),
                                  COUNTER_INTERFACE)
    results = []
    for i in range(4):
        if i == 2:
            world.faults.crash_now(domain.gateways[0].host.name)
        results.append(world.await_promise(stub.call("increment", 1),
                                           timeout=600))
    world.run(until=world.now + 2.0)
    assert results == [1, 2, 3, 4]
    return world


def run_promotion(seed=92, armed=True, spans=True):
    """A WARM_PASSIVE primary crash (a backup is promoted), then a live
    switch of the same group to ACTIVE."""
    world = World(seed=seed, trace_spans=spans, series=armed, flight=armed)
    domain = make_domain(world, num_hosts=4)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE,
                               replicas=3)
    for _ in range(3):
        world.await_promise(group.invoke("increment", 1))
    primary = group.info().primary(domain.coordinator_rm().live_hosts)
    world.faults.crash_now(primary)
    assert world.await_promise(group.invoke("increment", 1),
                               timeout=600) == 4
    world.await_promise(domain.switch_style(group, ReplicationStyle.ACTIVE))
    assert world.await_promise(group.invoke("increment", 1)) == 5
    world.run(until=world.now + 2.0)
    return world


def test_flight_covers_the_instrumented_subsystems():
    world = run_failover()
    kinds = {e["kind"] for e in world.flight.events()}
    # Membership changes (initial formation + post-crash reformation),
    # the injected fault, token-loss detection on the broken ring, and
    # span closes from the causal tracer.
    assert "flight.membership" in kinds
    assert "flight.fault" in kinds
    assert "flight.token_loss" in kinds
    assert "flight.span" in kinds
    fault, = world.flight.events("flight.fault")
    assert fault["detail"]["action"] == "crash"
    # The crash produced a second membership epoch without the victim.
    installs = world.flight.events("flight.membership")
    assert len(installs) > len(make_domain(World(seed=1)).hosts)


def test_flight_records_promotion_and_style_switch():
    world = run_promotion()
    promotion, = world.flight.events("flight.promotion")
    assert promotion["detail"]["style"] == "warm_passive"
    assert promotion["detail"]["resent"] == promotion["detail"]["reissued"] == 0
    switches = world.flight.events("flight.style_switch")
    # One per live processor (four hosts, the old primary dead).
    assert len(switches) == 3
    assert {(e["detail"]["old"], e["detail"]["new"], e["detail"]["epoch"])
            for e in switches} == {("warm_passive", "active", 1)}
    assert len({e["detail"]["rm"] for e in switches}) == 3


def test_arming_series_and_flight_never_perturbs_the_run():
    """The laziness/passivity contract, end to end: metrics JSON (the
    full simulated-time state fingerprint) is byte-identical whether
    the observability extras are armed or not, on a gateway failover
    and on a promotion followed by a live style switch."""
    for scenario in (run_failover, run_promotion):
        armed = scenario(armed=True, spans=False).metrics_json()
        dark = scenario(armed=False, spans=False).metrics_json()
        assert armed == dark, scenario.__name__


def test_flight_json_byte_identical_across_runs():
    first = run_failover()
    second = run_failover()
    assert first.flight_json() == second.flight_json()
    assert first.flight.recorded > 0

