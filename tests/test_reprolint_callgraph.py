"""Unit tests for the interprocedural layer: call-graph resolution,
taint propagation, and the DET101/DET102/SIM101 rules.

Two styles: in-memory multi-module projects built straight from source
strings (resolution forms, cycles, aliasing bounds), and the committed
directory fixtures under ``tests/fixtures/lint/taint_*`` run through
the full ``lint_paths`` pipeline (directive-scoped modules, suppression
routing, violation anchoring).
"""

from __future__ import annotations

import ast
import pathlib
import textwrap

from reprolint.callgraph import (CallGraph, TransitiveWallClockRule,
                                      build_callgraph, render_graph_json)
from reprolint.lint import (LintContext, ProjectContext, default_config,
                                 lint_paths, parse_suppressions)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint"
CONFIG = default_config(REPO_ROOT)


def project_of(*files):
    """Build a ProjectContext from (module, path, source) triples."""
    contexts, suppressions = [], {}
    for module, path, source in files:
        source = textwrap.dedent(source)
        contexts.append(LintContext(
            path=path, module=module, source=source,
            tree=ast.parse(source), config=CONFIG))
        suppressions[path] = parse_suppressions(path, source.splitlines())
    return ProjectContext(contexts, CONFIG, suppressions=suppressions)


def edge_pairs(graph):
    return {(e.caller, e.callee) for e in graph.edges}


# ----------------------------------------------------------------------
# Resolution forms
# ----------------------------------------------------------------------


def test_resolves_local_calls_methods_and_attr_bindings():
    graph = CallGraph.build(project_of(("m", "m.py", """\
        def leaf():
            return 1


        def caller():
            return leaf()


        class Widget:
            def __init__(self):
                self.helper = Gadget()

            def run(self):
                self.step()
                self.helper.spin()

            def step(self):
                f = leaf
                return f()


        class Gadget:
            def __init__(self):
                self.count = 0

            def spin(self):
                g = Widget()
                g.run()
        """)))
    pairs = edge_pairs(graph)
    assert ("m.caller", "m.leaf") in pairs
    assert ("m.Widget.__init__", "m.Gadget.__init__") in pairs
    assert ("m.Widget.run", "m.Widget.step") in pairs
    # self.helper = Gadget() binds self.helper.spin() to Gadget.spin.
    assert ("m.Widget.run", "m.Gadget.spin") in pairs
    # Bounded local aliasing: f = leaf; f().
    assert ("m.Widget.step", "m.leaf") in pairs
    # g = Widget() binds both the constructor and g.run().
    assert ("m.Gadget.spin", "m.Widget.__init__") in pairs
    assert ("m.Gadget.spin", "m.Widget.run") in pairs


def test_resolves_imports_inheritance_and_cross_module_taint():
    project = project_of(
        ("lib.base", "lib/base.py", """\
            import time


            class Base:
                def ding(self):
                    return time.time()


            def free_fn():
                return 2
            """),
        ("app.user", "app/user.py", """\
            import lib.base as lb
            from lib.base import Base


            class Child(Base):
                def go(self):
                    return self.ding()


            def use():
                return lb.free_fn()
            """))
    graph = CallGraph.build(project)
    pairs = edge_pairs(graph)
    # Inherited method through an imported base class.
    assert ("app.user.Child.go", "lib.base.Base.ding") in pairs
    # ``import x as y`` module alias.
    assert ("app.user.use", "lib.base.free_fn") in pairs
    taint = graph.taint("wall")
    assert taint["lib.base.Base.ding"].distance == 0
    assert taint["app.user.Child.go"].distance == 1
    chain = graph.chain("wall", "app.user.Child.go")
    assert chain.startswith("app.user.Child.go -> lib.base.Base.ding")
    assert "time.time" in chain


def test_follows_package_reexports():
    project = project_of(
        ("pkg", "pkg/__init__.py", """\
            from .impl import core_fn
            """),
        ("pkg.impl", "pkg/impl.py", """\
            def core_fn():
                return 1
            """),
        ("app", "app.py", """\
            from pkg import core_fn


            def use():
                return core_fn()
            """))
    graph = CallGraph.build(project)
    assert ("app.use", "pkg.impl.core_fn") in edge_pairs(graph)
    assert graph.callers("pkg.impl.core_fn") == ["app.use"]


def test_call_cycles_terminate_and_taint_both_sides():
    graph = CallGraph.build(project_of(("m", "m.py", """\
        import time


        def ping():
            return pong()


        def pong():
            return ping() or time.time()
        """)))
    taint = graph.taint("wall")
    assert taint["m.pong"].distance == 0
    assert taint["m.ping"].distance == 1
    assert graph.chain("wall", "m.ping").startswith("m.ping -> m.pong")


def test_suppressed_sink_is_a_sanctioned_boundary():
    project = project_of(("m", "m.py", """\
        import time


        def boundary():
            # reprolint: disable=SIM001 -- fixture: sanctioned host wait
            time.sleep(0.1)


        def caller():
            boundary()
        """))
    graph = CallGraph.build(project)
    assert graph.taint("blocking") == {}
    # The sink itself is still inventoried for the dump, marked as such.
    assert [s.suppressed for s in graph.sinks] == [True]


def test_direct_sink_frames_are_left_to_the_base_rule():
    """DET101 must not double-report a frame DET001 already flags."""
    project = project_of(
        ("fixturelib.glue", "glue.py", """\
            import time


            def stamp():
                return time.time()
            """),
        ("repro.sim.fake", "fake.py", """\
            import time

            from fixturelib.glue import stamp


            def direct_and_indirect():
                time.time()
                return stamp()
            """))
    violations = list(TransitiveWallClockRule().check_project(project))
    assert violations == []


def test_graph_dump_schema():
    project = project_of(("m", "m.py", """\
        import time


        def stamp():
            return time.time()


        def caller():
            return stamp()
        """))
    dump = render_graph_json(project)
    assert dump["schema"] == 1
    assert {fn["qname"] for fn in dump["functions"]} == {"m.stamp",
                                                         "m.caller"}
    assert dump["edges"] == [
        {"caller": "m.caller", "callee": "m.stamp", "line": 9, "col": 11}]
    assert dump["sinks"][0]["detail"] == "time.time"
    assert dump["sinks"][0]["suppressed"] is False
    wall = dump["tainted"]["wall"]
    assert wall["m.caller"]["distance"] == 1
    assert "time.time" in wall["m.caller"]["chain"]
    # build_callgraph memoises on the project.
    assert build_callgraph(project) is build_callgraph(project)


# ----------------------------------------------------------------------
# The directory fixtures, through the full pipeline
# ----------------------------------------------------------------------


def lint_dir(name):
    return lint_paths([FIXTURES / name], config=CONFIG, root=REPO_ROOT)


def by_code(result):
    table = {}
    for file_result in result.files:
        for violation in file_result.violations:
            table.setdefault(violation.code, []).append(violation)
    return table


def test_taint_bad_fixture_fires_all_three_families():
    table = by_code(lint_dir("taint_bad"))
    for code, entry, helper in [
            ("DET101", "record_event", "tagged_stamp"),
            ("DET102", "pick_backoff", "jitter"),
            ("SIM101", "settle", "nap")]:
        found = table.get(code, [])
        assert len(found) == 1, (code, found)
        violation = found[0]
        assert violation.path.endswith("taint_bad/entry.py")
        assert entry in violation.message
        assert helper in violation.message
    # The two-hop wall chain names every frame down to the sink.
    assert ("tagged_stamp -> fixturelib.hostglue.stamp -> time.time"
            in table["DET101"][0].message)
    # The helpers file still gets the per-file base findings.
    assert all(v.path.endswith("helpers.py")
               for v in table.get("DET001", []) + table.get("DET002", []))
    assert table["DET001"] and table["DET002"]


def test_taint_good_fixture_is_clean():
    result = lint_dir("taint_good")
    assert result.violations == []
    assert result.parse_errors == []
    # The sanctioned-boundary suppression is exercised, not stale.
    assert result.unused_suppressions == []
    assert any(s.used for f in result.files for s in f.suppressions)
