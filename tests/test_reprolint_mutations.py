"""Seeded-mutation regressions: each new rule family must catch its
canonical bug when it is deliberately introduced into the real tree.

Each test copies ``src/`` to a temp dir, applies one surgical mutation
(the kind of slip the rules exist to catch), runs the full lint
pipeline, and asserts the expected code fires at the mutated module —
proving the whole chain (extraction, resolution, taint, suppression
routing) works on the production sources, not just on fixtures.
"""

from __future__ import annotations

import pathlib
import shutil

import pytest

from reprolint.lint import default_config, lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


@pytest.fixture
def mutated(tmp_path):
    """Copy src/, hand the copy to the test's mutator, lint it."""
    def run(mutate):
        dst = tmp_path / "src"
        shutil.copytree(SRC, dst, ignore=shutil.ignore_patterns(
            "__pycache__"))
        mutate(dst)
        # Real config (with the docs/ catalogue); tmp root only affects
        # how violation paths are relativised.
        return lint_paths([dst], config=default_config(REPO_ROOT),
                          root=tmp_path)
    return run


def rewrite(path, old, new):
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1, f"mutation anchor drifted in {path}"
    path.write_text(source.replace(old, new), encoding="utf-8")


def codes_with_messages(result):
    return [(v.code, v.path, v.message) for v in result.violations]


def test_removing_a_dispatch_entry_fires_sm001(mutated):
    """Dropping one MsgKind branch from the replication dispatch table
    must fail lint, not fall through at delivery time."""
    result = mutated(lambda dst: rewrite(
        dst / "repro/eternal/replication.py",
        "            MsgKind.CHECKPOINT: self._apply_checkpoint,\n", ""))
    hits = [v for v in result.violations if v.code == "SM001"]
    assert any("CHECKPOINT" in v.message
               and v.path.endswith("replication.py") for v in hits), \
        codes_with_messages(result)


def test_removing_a_style_engine_fires_sm001(mutated):
    """The style -> engine table picks each style's engine family; a
    style left out of it must fail lint."""
    result = mutated(lambda dst: rewrite(
        dst / "repro/eternal/engines.py",
        "    ReplicationStyle.LEADER_FOLLOWER: SemiActive,\n", ""))
    hits = [v for v in result.violations if v.code == "SM001"]
    assert any("LEADER_FOLLOWER" in v.message
               and v.path.endswith("engines.py") for v in hits), \
        codes_with_messages(result)


def test_orphaning_a_handler_fires_flow002(mutated):
    """Deleting the only send site of REPLICA_READY leaves its handler
    unreachable; the dead-handler check must notice."""
    result = mutated(lambda dst: rewrite(
        dst / "repro/eternal/replication.py",
        "kind=MsgKind.REPLICA_READY,", "kind=ready_kind,"))
    hits = [v for v in result.violations if v.code == "FLOW002"]
    assert any("MsgKind.REPLICA_READY" in v.message
               and "dead handler" in v.message for v in hits), \
        codes_with_messages(result)


def test_new_unused_kind_fires_flow002_and_sm001(mutated):
    """Adding a MsgKind member without wiring it anywhere trips both
    the dead-kind check and the dispatch-table exhaustiveness check."""
    result = mutated(lambda dst: rewrite(
        dst / "repro/eternal/messages.py",
        "    INVOCATION = \"invocation\"\n",
        "    INVOCATION = \"invocation\"\n    PHANTOM = \"phantom\"\n"))
    flow = [v for v in result.violations if v.code == "FLOW002"]
    assert any("MsgKind.PHANTOM" in v.message
               and "dead message kind" in v.message for v in flow), \
        codes_with_messages(result)
    sm = [v for v in result.violations if v.code == "SM001"]
    assert any("PHANTOM" in v.message
               and v.path.endswith("replication.py") for v in sm), \
        codes_with_messages(result)


def test_renaming_a_flight_kind_fires_obs001(mutated):
    """A flight-recorder event kind renamed away from its catalogue row
    is an uncatalogued series."""
    result = mutated(lambda dst: rewrite(
        dst / "repro/sim/faults.py",
        'flight.record("flight.fault",', 'flight.record("flight.faults",'))
    hits = [v for v in result.violations if v.code == "OBS001"]
    assert any("flight.faults" in v.message
               and v.path.endswith("faults.py") for v in hits), \
        codes_with_messages(result)


def test_routing_a_helper_through_wall_time_fires_det101(mutated):
    """A deterministic function calling an out-of-scope helper that
    reads the wall clock must be flagged at the call edge with the
    full witness chain."""
    def mutate(dst):
        hostclock = dst / "repro/obs/hostclock.py"
        hostclock.write_text(
            hostclock.read_text(encoding="utf-8")
            + "\n\ndef fixture_fresh_stamp():\n"
              "    return _time.time()\n", encoding="utf-8")
        headers = dst / "repro/core/headers.py"
        headers.write_text(
            headers.read_text(encoding="utf-8")
            + "\n\nfrom ..obs.hostclock import fixture_fresh_stamp\n"
              "\n\ndef fixture_mark():\n"
              "    return fixture_fresh_stamp()\n", encoding="utf-8")
    result = mutated(mutate)
    hits = [v for v in result.violations if v.code == "DET101"]
    assert len(hits) == 1, codes_with_messages(result)
    violation = hits[0]
    assert violation.path.endswith("headers.py")
    assert "fixture_mark" in violation.message
    assert ("fixture_fresh_stamp -> time.time" in violation.message)
    # The helper's own frame is the base rule's job, not DET101's.
    assert any(v.code == "DET001" and v.path.endswith("hostclock.py")
               for v in result.violations)


def test_reissuing_on_a_simulated_crash_fires_sim002(mutated):
    """Driver calls are reissued at the coordinator's membership change;
    putting the simulator's crash hook back into the domain must fail
    lint."""
    result = mutated(lambda dst: rewrite(
        dst / "repro/eternal/domain.py",
        "        self.hosts.append(host)\n",
        "        self.hosts.append(host)\n"
        "        host.on_crash(lambda crashed: None)\n"))
    hits = [v for v in result.violations if v.code == "SIM002"]
    assert any("on_crash" in v.message and v.path.endswith("domain.py")
               for v in hits), codes_with_messages(result)


def test_unmutated_copy_stays_clean(mutated):
    """Control: the copy/relint harness itself introduces nothing."""
    result = mutated(lambda dst: None)
    assert result.violations == []
    assert result.parse_errors == []
