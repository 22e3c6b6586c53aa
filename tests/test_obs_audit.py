"""Unit tests for the resource-leak audit (repro.obs.audit)."""

import json

import pytest

from repro import World
from repro.errors import AuditError
from repro.obs import AuditScope, MetricsRegistry, to_json


def test_register_and_clean_audit():
    scope = AuditScope()
    items = []
    scope.register("box", lambda: len(items), floor=0, owner="me")
    report = scope.audit()
    assert report.ok
    assert report.violations == []
    report.assert_clean()  # must not raise


def test_violation_detected_and_assert_clean_raises():
    scope = AuditScope()
    items = [1, 2]
    scope.register("box", lambda: len(items), floor=1, owner="me")
    report = scope.audit()
    assert not report.ok
    assert [row.name for row in report.violations] == ["box"]
    with pytest.raises(AuditError) as err:
        report.assert_clean()
    assert "me/box" in str(err.value)
    assert "size=2" in str(err.value)


def test_callable_floor_tracks_live_state():
    scope = AuditScope()
    items = [1, 2, 3]
    limit = [3]
    scope.register("box", lambda: len(items), floor=lambda: limit[0])
    assert scope.audit().ok
    limit[0] = 2
    assert not scope.audit().ok


def test_snapshot_only_entries_never_violate():
    scope = AuditScope()
    scope.register("queue", lambda: 10_000, floor=None)
    report = scope.audit()
    assert report.ok
    assert report.rows[0].floor is None
    assert "floor=-" in report.rows[0].describe()


def test_inactive_owner_is_skipped():
    """A crashed process's collections are frozen memory, not leaks."""
    scope = AuditScope()
    live = [True]
    scope.register("box", lambda: 5, floor=0, active=lambda: live[0])
    assert not scope.audit().ok
    live[0] = False
    report = scope.audit()
    assert report.ok
    assert not report.rows[0].active
    assert "skipped" in report.rows[0].describe()


def test_gauges_lazy_and_summed_over_active_entries():
    metrics = MetricsRegistry()
    scope = AuditScope(metrics=metrics, clock=lambda: 1.5)
    scope.register("a", lambda: 2, floor=None, gauge="x.state.size")
    scope.register("b", lambda: 3, floor=None, gauge="x.state.size")
    scope.register("c", lambda: 7, floor=None, gauge="x.state.size",
                   active=lambda: False)
    # Never-audited scopes leave the registry untouched (golden safety).
    assert "x.state.size" not in json.loads(to_json(metrics))["metrics"]
    report = scope.audit()
    assert report.at == 1.5
    assert metrics.gauge("x.state.size").value == 5  # active entries only


def test_report_render_lists_every_row():
    scope = AuditScope()
    scope.register("a", lambda: 0, floor=0, owner="one")
    scope.register("b", lambda: 9, floor=2, owner="two")
    text = scope.audit().render()
    assert "2 collections" in text
    assert "1 leak(s)" in text
    assert "LEAK" in text


def test_world_audit_strict_raises_on_induced_leak():
    world = World(seed=1)
    leaked = [object()]
    world.audit_scope.register("test.leak", lambda: len(leaked), floor=0)
    with pytest.raises(AuditError):
        world.audit(strict=True)
    leaked.clear()
    world.audit(strict=True)  # clean again


def test_world_audit_publishes_state_gauges():
    world = World(seed=3)
    world.audit()
    doc = json.loads(world.metrics_json())["metrics"]
    assert "sched.state.queue_depth" in doc
    assert "sched.state.stale_entries" in doc
