"""Unit tests for the replicated group directory."""

import pytest

from repro.errors import ConfigurationError
from repro.eternal import GroupInfo, GroupRegistry, ReplicationStyle


def info(gid=10, name="G", placement=("h0", "h1", "h2"), **kwargs):
    fields = dict(group_id=gid, name=name, interface_name="I",
                  factory_name="f", style=ReplicationStyle.ACTIVE,
                  placement=tuple(placement))
    fields.update(kwargs)
    return GroupInfo(**fields)


def test_announce_and_lookup():
    reg = GroupRegistry()
    assert reg.announce(info()) is True
    assert reg.get(10).name == "G"
    assert reg.by_name("G").group_id == 10
    assert 10 in reg


def test_announce_is_idempotent():
    reg = GroupRegistry()
    assert reg.announce(info()) is True
    assert reg.announce(info()) is False
    assert len(reg.all_groups()) == 1


def test_announce_overwrite_renames():
    reg = GroupRegistry()
    reg.announce(info(name="Old"))
    reg.announce(info(name="New"))
    assert reg.by_name("Old") is None
    assert reg.by_name("New").group_id == 10


def test_require_raises_for_unknown():
    reg = GroupRegistry()
    with pytest.raises(ConfigurationError):
        reg.require(99)


def test_remove():
    reg = GroupRegistry()
    reg.announce(info())
    removed = reg.remove(10)
    assert removed.name == "G"
    assert reg.get(10) is None
    assert reg.by_name("G") is None
    assert reg.remove(10) is None  # idempotent


def test_add_and_remove_replica():
    reg = GroupRegistry()
    reg.announce(info(placement=("h0",)))
    assert reg.add_replica(10, "h1") is True
    assert reg.add_replica(10, "h1") is False  # idempotent
    assert reg.get(10).placement == ("h0", "h1")
    assert reg.remove_replica(10, "h0") is True
    assert reg.remove_replica(10, "h0") is False
    assert reg.get(10).placement == ("h1",)


def test_primary_is_first_live_in_placement_order():
    entry = info(placement=("h2", "h0", "h1"))
    assert entry.primary(["h0", "h1", "h2"]) == "h2"
    assert entry.primary(["h0", "h1"]) == "h0"
    assert entry.primary([]) is None


def test_prune_dead_hosts():
    reg = GroupRegistry()
    reg.announce(info(gid=10, name="A", placement=("h0", "h1")))
    reg.announce(info(gid=11, name="B", placement=("h1", "h2")))
    removed = reg.prune_dead_hosts(["h0", "h2"])
    assert set(removed) == {(10, "h1"), (11, "h1")}
    assert reg.get(10).placement == ("h0",)
    assert reg.get(11).placement == ("h2",)


def test_bump_version():
    reg = GroupRegistry()
    reg.announce(info())
    reg.bump_version(10, "f2")
    assert reg.get(10).version == 2
    assert reg.get(10).factory_name == "f2"


def test_all_groups_sorted_by_id():
    reg = GroupRegistry()
    reg.announce(info(gid=12, name="B"))
    reg.announce(info(gid=10, name="A"))
    assert [g.group_id for g in reg.all_groups()] == [10, 12]
