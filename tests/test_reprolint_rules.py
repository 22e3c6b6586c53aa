"""Per-rule tests for the reprolint rule pack, over committed fixtures.

Every rule gets a bad fixture (must flag) and a good fixture (must not),
both under ``tests/fixtures/lint/``.  Fixtures carry a
``# reprolint: module=...`` directive so the repo-aware scoping (which
packages are deterministic / sim-only / audited) applies to files that
live outside ``src/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.lint import default_config, lint_source

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint"
CONFIG = default_config(REPO_ROOT)


def lint_fixture(name):
    path = FIXTURES / name
    return lint_source(path.read_text(encoding="utf-8"), path=str(path),
                       config=CONFIG)


def codes(result):
    return sorted({v.code for v in result.violations})


@pytest.mark.parametrize("code,bad,good", [
    ("DET001", "det001_bad.py", "det001_good.py"),
    ("DET002", "det002_bad.py", "det002_good.py"),
    ("DET003", "det003_bad.py", "det003_good.py"),
    ("DET004", "det004_bad.py", "det004_good.py"),
    ("SIM001", "sim001_bad.py", "sim001_good.py"),
    ("OBS001", "obs001_bad.py", "obs001_good.py"),
    ("AUD001", "aud001_bad.py", "aud001_good.py"),
    ("EXC001", "exc001_bad.py", "exc001_good.py"),
    ("SM001", "sm001_bad.py", "sm001_good.py"),
    ("FLOW001", "flow001_bad.py", "flow001_good.py"),
    ("FLOW002", "flow002_bad.py", "flow002_good.py"),
    ("FLOW003", "flow003_bad.py", "flow003_good.py"),
])
def test_rule_flags_bad_and_passes_good(code, bad, good):
    bad_result = lint_fixture(bad)
    assert code in codes(bad_result), \
        f"{bad} should trip {code}, got {codes(bad_result)}"
    good_result = lint_fixture(good)
    assert code not in codes(good_result), \
        f"{good} unexpectedly tripped {code}: " \
        f"{[v.describe() for v in good_result.violations]}"


def test_bad_fixtures_flag_every_offending_construct():
    """Spot-check counts so a rule that silently stops matching one of
    its constructs cannot hide behind the any-violation assertion."""
    det1 = lint_fixture("det001_bad.py")
    assert len([v for v in det1.violations if v.code == "DET001"]) >= 3
    sim1 = lint_fixture("sim001_bad.py")
    assert len([v for v in sim1.violations if v.code == "SIM001"]) >= 3
    obs1 = lint_fixture("obs001_bad.py")
    flagged = {v.message for v in obs1.violations if v.code == "OBS001"}
    assert any("definitely.not.in.catalogue" in m for m in flagged)
    assert any("mystery.span" in m for m in flagged)
    assert any("series.not.in.catalogue" in m for m in flagged)
    assert any("series.also.uncatalogued" in m for m in flagged)
    assert any("flight.mystery.kind" in m for m in flagged)
    assert any("table.not.in.catalogue" in m for m in flagged)
    aud1 = lint_fixture("aud001_bad.py")
    flagged = {v.message for v in aud1.violations if v.code == "AUD001"}
    assert any("_forgotten" in m for m in flagged)
    assert not any("_pending" in m for m in flagged)
    exc1 = lint_fixture("exc001_bad.py")
    assert len([v for v in exc1.violations if v.code == "EXC001"]) == 2
    sm1 = lint_fixture("sm001_bad.py")
    flagged = {v.message for v in sm1.violations if v.code == "SM001"}
    assert any("`Phase` misses OPERATIONAL" in m for m in flagged)
    assert any("`Valve` misses HALF" in m for m in flagged)
    assert any("dict dispatch over `Phase`" in m for m in flagged)
    flow2 = lint_fixture("flow002_bad.py")
    flagged = {v.message for v in flow2.violations if v.code == "FLOW002"}
    assert any("MsgKind.RETIRED" in m and "dead handler" in m
               for m in flagged)
    assert any("MsgKind.GHOST" in m and "dead message kind" in m
               for m in flagged)


def test_rules_scope_to_their_packages():
    """The same wall-clock read is a violation only inside the
    deterministic packages."""
    source = ("# reprolint: module={module}\n"
              "import time\n\n\n"
              "def stamp():\n"
              "    return time.time()\n")
    sim = lint_source(source.format(module="repro.sim.fake"),
                      config=CONFIG)
    assert "DET001" in codes(sim)
    # DET001 guards *all* repro modules (hostclock is the one boundary),
    # but SIM001's blocking-I/O rules are scoped to sim-driven packages:
    blocking = ("# reprolint: module={module}\n\n\n"
                "def read(path):\n"
                "    return open(path).read()\n")
    assert "SIM001" in codes(
        lint_source(blocking.format(module="repro.core.fake"),
                    config=CONFIG))
    assert "SIM001" not in codes(
        lint_source(blocking.format(module="repro.obs.fake"),
                    config=CONFIG))


def test_suppression_end_of_line_and_next_line_forms():
    base = ("# reprolint: module=repro.sim.fake\n"
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time(){eol}\n")
    flagged = lint_source(base.format(eol=""), config=CONFIG)
    assert "DET001" in codes(flagged)
    eol = lint_source(
        base.format(eol="  # reprolint: disable=DET001 -- fixture"),
        config=CONFIG)
    assert eol.violations == []
    assert len(eol.suppressed) == 1
    prev = lint_source(
        "# reprolint: module=repro.sim.fake\n"
        "import time\n\n\n"
        "def stamp():\n"
        "    # reprolint: disable=DET001 -- fixture\n"
        "    return time.time()\n", config=CONFIG)
    assert prev.violations == []
    assert len(prev.suppressed) == 1


def test_file_level_suppression_and_unused_tracking():
    result = lint_source(
        "# reprolint: module=repro.sim.fake\n"
        "# reprolint: disable-file=DET001 -- fixture\n"
        "import time\n\n\n"
        "def stamp():\n"
        "    return time.time()\n", config=CONFIG)
    assert result.violations == []
    assert result.suppressed
    unused = lint_source(
        "# reprolint: module=repro.sim.fake\n"
        "# reprolint: disable-file=DET002 -- matches nothing\n"
        "X = 1\n", config=CONFIG)
    assert [s.used for s in unused.suppressions] == [False]


def test_suppression_syntax_in_docstrings_is_ignored():
    """Directives quoted in docstrings (the framework documents its own
    syntax) must be neither suppressions nor unused-suppression noise."""
    result = lint_source(
        '"""Use ``# reprolint: disable=DET001`` to suppress."""\n'
        "X = 1\n", config=CONFIG)
    assert result.suppressions == []


def test_unjustified_suppression_is_counted():
    result = lint_source(
        "# reprolint: module=repro.sim.fake\n"
        "import time\n\n\n"
        "def stamp():\n"
        "    return time.time()  # reprolint: disable=DET001\n",
        config=CONFIG)
    assert result.violations == []
    used = [s for s in result.suppressions if s.used]
    assert len(used) == 1 and not used[0].justification
