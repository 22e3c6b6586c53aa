"""Unit tests for the datagram network and fault injector."""

import pytest

from repro.sim import FaultInjector, LatencyModel, Network, Scheduler, World


def make_network():
    scheduler = Scheduler()
    network = Network(scheduler, latency_model=LatencyModel(
        local_latency=0.001, wan_latency=0.05))
    return scheduler, network


def test_datagram_delivered_after_latency():
    scheduler, network = make_network()
    a = network.add_host("a", site="s")
    b = network.add_host("b", site="s")
    received = []
    network.send(a, b, "hello", received.append)
    scheduler.run()
    assert received == ["hello"]
    assert scheduler.now == pytest.approx(0.001)


def test_wan_latency_applies_across_sites():
    scheduler, network = make_network()
    a = network.add_host("a", site="s1")
    b = network.add_host("b", site="s2")
    received = []
    network.send(a, b, "x", received.append)
    scheduler.run()
    assert scheduler.now == pytest.approx(0.05)


def test_send_from_dead_host_dropped():
    scheduler, network = make_network()
    a = network.add_host("a")
    b = network.add_host("b")
    a.crash()
    received = []
    network.send(a, b, "x", received.append)
    scheduler.run()
    assert received == []


def test_delivery_to_host_that_dies_in_flight_dropped():
    scheduler, network = make_network()
    a = network.add_host("a", site="s1")
    b = network.add_host("b", site="s2")
    received = []
    network.send(a, b, "x", received.append)
    scheduler.call_at(0.01, b.crash)  # mid-flight (latency 0.05)
    scheduler.run()
    assert received == []


def test_held_datagram_arrives_hold_plus_latency_later_in_one_event():
    scheduler, network = make_network()
    a = network.add_host("a", site="s")
    b = network.add_host("b", site="s")
    received = []
    network.send(a, b, "held", received.append, hold=0.004)
    scheduler.run()
    assert received == ["held"]
    assert scheduler.now == pytest.approx(0.005)
    assert scheduler.events_processed == 1


@pytest.mark.parametrize("crash_at, delivered", [
    (0.002, []),            # while the sender still holds it
    (0.0045, ["held"]),     # after it left: in flight, like any datagram
    (0.004, []),            # as it leaves: the hold window is inclusive
])
def test_sender_crashing_while_it_holds_a_datagram_takes_it_down(
        crash_at, delivered):
    scheduler, network = make_network()
    a = network.add_host("a", site="s")
    b = network.add_host("b", site="s")
    received = []
    network.send(a, b, "held", received.append, hold=0.004)
    scheduler.call_at(crash_at, a.crash)
    scheduler.run()
    assert received == delivered


def test_a_sender_that_recovers_within_the_hold_still_lost_the_datagram():
    scheduler, network = make_network()
    a = network.add_host("a", site="s")
    b = network.add_host("b", site="s")
    received = []
    network.send(a, b, "held", received.append, hold=0.004)
    scheduler.call_at(0.001, a.crash)
    scheduler.call_at(0.002, a.recover)
    scheduler.run()
    assert a.alive and received == []


def test_an_unheld_datagram_outlives_its_sender_crashing_as_it_is_sent():
    scheduler, network = make_network()
    a = network.add_host("a", site="s")
    b = network.add_host("b", site="s")
    received = []
    network.send(a, b, "sent", received.append)
    a.crash()                    # the same instant, after sending
    scheduler.run()
    assert received == ["sent"]


def test_a_destination_down_at_send_but_up_at_arrival_receives():
    scheduler, network = make_network()
    a = network.add_host("a", site="s")
    b = network.add_host("b", site="s")
    b.crash()
    received = []
    network.send(a, b, "x", received.append)
    scheduler.call_at(0.0005, b.recover)   # latency 0.001
    scheduler.run()
    assert received == ["x"]


def test_partition_blocks_and_heals():
    scheduler, network = make_network()
    a = network.add_host("a")
    b = network.add_host("b")
    network.partition({"a"}, {"b"})
    received = []
    network.send(a, b, "blocked", received.append)
    scheduler.run()
    assert received == []
    network.heal_partitions()
    network.send(a, b, "through", received.append)
    scheduler.run()
    assert received == ["through"]


def test_partition_blocks_both_directions():
    scheduler, network = make_network()
    a = network.add_host("a")
    b = network.add_host("b")
    network.partition({"a"}, {"b"})
    assert not network.can_communicate("a", "b")
    assert not network.can_communicate("b", "a")


def test_partition_leaves_third_parties_untouched():
    scheduler, network = make_network()
    network.add_host("a")
    network.add_host("b")
    network.add_host("c")
    network.partition({"a"}, {"b"})
    assert network.can_communicate("a", "c")
    assert network.can_communicate("b", "c")


def test_crash_and_recovery_listeners():
    scheduler, network = make_network()
    a = network.add_host("a")
    events = []
    network.on_host_crash(lambda host: events.append(("down", host.name)))
    network.on_host_recovery(lambda host: events.append(("up", host.name)))
    a.crash()
    a.recover()
    assert events == [("down", "a"), ("up", "a")]


def test_crash_is_idempotent():
    scheduler, network = make_network()
    a = network.add_host("a")
    a.crash()
    a.crash()
    assert a.crash_count == 1


def test_fault_injector_schedules_crash_and_recovery():
    world = World(seed=1, flight=True)
    world.add_host("h")
    world.faults.crash_host("h", at=1.0)
    world.faults.recover_host("h", at=2.0)
    world.run(until=1.5)
    assert not world.network.host("h").alive
    world.run(until=2.5)
    assert world.network.host("h").alive
    assert [(event["t"], event["detail"]["action"], event["detail"]["target"])
            for event in world.flight.events("flight.fault")] == [
        (1.0, "crash", "h"), (2.0, "recover", "h")]
    assert world.metrics.value("fault.injected.crash") == 1
    assert world.metrics.value("fault.injected.recover") == 1


def test_fault_injector_partition_window():
    world = World(seed=1)
    world.add_host("a")
    world.add_host("b")
    world.faults.partition({"a"}, {"b"}, at=1.0, heal_at=2.0)
    world.run(until=1.5)
    assert not world.network.can_communicate("a", "b")
    world.run(until=2.5)
    assert world.network.can_communicate("a", "b")


def make_lan(names="abcde"):
    """A network whose hosts share one site; the first is the sender."""
    scheduler, network = make_network()
    hosts = [network.add_host(name, site="lan") for name in names]
    return scheduler, network, hosts


def test_broadcast_fires_one_event_per_delay_group():
    scheduler, network, hosts = make_lan()
    received = []
    targets = [(host, lambda p, n=host.name: received.append(n))
               for host in hosts]
    assert network.broadcast(hosts[0], targets, "m", size=10) == 5
    scheduler.run()
    # The sender's loopback, then the four LAN members in one event.
    assert received == list("abcde")
    assert scheduler.events_processed == 2
    assert network.datagrams_sent == network.datagrams_delivered == 5
    assert network.bytes_sent == 50


def test_a_member_crashing_a_later_member_mid_group_drops_its_delivery():
    scheduler, network, hosts = make_lan()
    received = []

    def deliver(name):
        def handler(payload):
            received.append(name)
            if name == "b":
                hosts[3].crash()          # "d", still to come this event
        return handler

    network.broadcast(hosts[0], [(h, deliver(h.name)) for h in hosts], "m")
    scheduler.run()
    assert received == list("abce")
    assert network.datagrams_sent == 5
    assert network.datagrams_delivered == 4


def test_a_partition_installed_mid_group_drops_the_far_side():
    scheduler, network, hosts = make_lan()
    received = []

    def deliver(name):
        def handler(payload):
            received.append(name)
            if name == "b":
                network.partition({"a"}, {"d", "e"})
        return handler

    network.broadcast(hosts[0], [(h, deliver(h.name)) for h in hosts], "m")
    scheduler.run()
    assert received == list("abc")
    assert network.datagrams_delivered == 3


def test_an_event_a_member_posts_for_now_fires_after_the_whole_group():
    scheduler, network, hosts = make_lan()
    log = []

    def deliver(name):
        def handler(payload):
            log.append((scheduler.now, name))
            if name in ("a", "b"):
                scheduler.post(0.0, lambda: log.append(
                    (scheduler.now, f"after-{name}")))
        return handler

    network.broadcast(hosts[0], [(h, deliver(h.name)) for h in hosts], "m")
    scheduler.run()
    loop, lan = 0.0001, 0.001
    assert [name for _, name in log] == [
        "a", "after-a", "b", "c", "d", "e", "after-b"]
    assert [time for time, _ in log] == pytest.approx(
        [loop, loop, lan, lan, lan, lan, lan])


def test_run_until_sees_a_delay_group_as_one_event():
    scheduler, network, hosts = make_lan()
    received = []
    network.broadcast(hosts[0], [(h, received.append) for h in hosts], "m")
    # The predicate is asked between events, never between two members
    # of one delay group: it first sees two deliveries satisfied after
    # all five have arrived.
    scheduler.run_until(lambda: len(received) >= 2)
    assert received == ["m"] * 5
    assert scheduler.events_processed == 2


def test_network_accounting():
    scheduler, network = make_network()
    a = network.add_host("a")
    b = network.add_host("b")
    network.send(a, b, "x", lambda _: None, size=100)
    scheduler.run()
    assert network.datagrams_sent == 1
    assert network.datagrams_delivered == 1
    assert network.bytes_sent == 100
