"""Tests for the Eternal Interceptor's address interposition (section 3.1)."""

import pytest

from repro import Orb, World
from repro.apps import COUNTER_INTERFACE, CounterServant
from repro.errors import ConfigurationError

from tests.helpers import make_counter_group, make_domain


def test_published_ior_points_at_gateway_not_replicas(world):
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    domain.await_ready(group)
    ior = domain.ior_for(group)
    profile = ior.primary_profile()
    gateway = domain.gateways[0]
    assert profile.address == (gateway.host.name, gateway.port)


def test_published_ior_object_key_encodes_group(world):
    from repro.eternal import parse_object_key
    domain = make_domain(world, gateways=1)
    group = make_counter_group(domain)
    ior = domain.ior_for(group)
    parsed = parse_object_key(ior.primary_profile().object_key)
    assert parsed == (domain.name, group.group_id)


def test_multi_profile_ior_lists_all_gateways(world):
    domain = make_domain(world, gateways=3)
    group = make_counter_group(domain)
    ior = domain.ior_for(group)
    hosts = {p.host for p in ior.iiop_profiles()}
    assert hosts == {gw.host.name for gw in domain.gateways}


def test_first_gateway_only_ior_has_single_profile(world):
    domain = make_domain(world, gateways=3)
    group = make_counter_group(domain)
    ior = domain.ior_for(group, first_gateway_only=True)
    assert len(ior.iiop_profiles()) == 1


def test_live_gateways_lead_the_profile_list(world):
    domain = make_domain(world, gateways=2)
    group = make_counter_group(domain)
    world.faults.crash_now(domain.gateways[0].host.name)
    ior = domain.ior_for(group)
    profiles = ior.iiop_profiles()
    assert profiles[0].host == domain.gateways[1].host.name
    assert profiles[1].host == domain.gateways[0].host.name


def test_domain_without_gateway_cannot_publish(world):
    domain = make_domain(world, gateways=0)
    group = make_counter_group(domain)
    with pytest.raises(ConfigurationError):
        domain.ior_for(group)


def test_interpose_orb_overrides_published_address(world):
    """The getsockname()/sysinfo() seam: a plain ORB whose address query
    is interposed publishes the gateway's address in its IORs."""
    domain = make_domain(world, gateways=1)
    gateway = domain.gateways[0]
    server_host = world.add_host("legacy-server")
    orb = Orb(world, server_host)
    orb.listen(9000)
    # Without interposition the ORB publishes its own address.
    plain_ior = orb.activate_object(CounterServant())
    assert plain_ior.primary_profile().address == ("legacy-server", 9000)
    # With Eternal's interceptor attached, the same call publishes the
    # gateway address — no IOR-string parsing involved (section 3.1).
    domain.interceptor.interpose_orb(orb)
    intercepted_ior = orb.activate_object(CounterServant())
    assert intercepted_ior.primary_profile().address == (
        gateway.host.name, gateway.port)


def test_interposed_orb_asks_for_the_gateway_at_each_publication(world):
    """The hook answers when the ORB publishes, not when it was
    interposed: after the first gateway crashes, a newly published IOR
    leads with the live one, as ``published_ior`` does."""
    domain = make_domain(world, gateways=2)
    orb = Orb(world, world.add_host("legacy-server"))
    orb.listen(9000)
    domain.interceptor.interpose_orb(orb)
    world.faults.crash_now(domain.gateways[0].host.name)
    live = domain.gateways[1]
    ior = orb.activate_object(CounterServant())
    assert ior.primary_profile().address == (live.host.name, live.port)
