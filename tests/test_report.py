"""Tests for the domain status reporting module."""

import pytest

from repro import ReplicationStyle, World
from repro.eternal import domain_report, format_report

from tests.helpers import make_counter_group, make_domain


def test_report_lists_groups_and_gateways(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    world.await_promise(group.invoke("increment", 1))
    world.run(until=world.now + 0.3)
    report = domain_report(domain)
    assert report["alive"] and report["stable"]
    names = {g["name"] for g in report["groups"]}
    assert {"Counter", "EternalReplicationManager"} <= names
    counter = next(g for g in report["groups"] if g["name"] == "Counter")
    assert counter["healthy"]
    assert counter["ready_replicas"] == 3
    assert len(report["gateways"]) == 1
    assert report["gateways"][0]["alive"]
    # "multicasts" are messages (`totem.msg.sent`), not the frames that
    # carry them (`transport.stats["broadcasts"]` — which also counts
    # Join and Commit, and packs several messages at a larger token
    # quota).
    assert report["multicasts"] == world.metrics.value("totem.msg.sent") > 0
    assert report["multicasts"] != domain.transport.stats["broadcasts"]


def test_report_marks_degraded_groups(world):
    domain = make_domain(world, num_hosts=3)
    group = make_counter_group(domain, replicas=3, min_replicas=3)
    world.await_promise(group.invoke("increment", 1))
    world.faults.crash_now(group.info().placement[0])
    world.run(until=world.now + 1.0)
    report = domain_report(domain)
    counter = next(g for g in report["groups"] if g["name"] == "Counter")
    # Only 2 hosts remain for a min of 3: degraded and visible as such.
    assert counter["ready_replicas"] == 2
    assert not counter["healthy"]


def test_report_survives_dead_domain(world):
    domain = make_domain(world, num_hosts=2)
    for host in list(domain.hosts):
        world.faults.crash_now(host.name)
    report = domain_report(domain)
    assert report == {"domain": "dom", "alive": False}
    assert "DOWN" in format_report(report)


def test_format_report_is_readable(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain, style=ReplicationStyle.WARM_PASSIVE)
    domain.await_ready(group)
    text = format_report(domain_report(domain))
    assert "domain dom: stable" in text
    assert "Counter" in text
    assert "warm_passive" in text
    assert "gateway dom-gw0:2809 [up]" in text


def test_module_demo_runs():
    from repro.__main__ import main
    assert main([]) == 0
