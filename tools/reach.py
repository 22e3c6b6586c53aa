#!/usr/bin/env python
"""reach — which functions of ``src/repro`` a real run calls.

Usage:
    python tools/reach.py           # the table, per package
    python tools/reach.py --list    # every unreached function, one a line
    python tools/reach.py --unread  # every attribute nothing reads

A ``sys.setprofile`` hook records the code of every Python call while
this process runs the seven ``examples/`` scripts and one dark
repetition of each ``BENCHMARK.json`` workload at quick scale
(``bench.rep.run``, the call ``tests/test_bench_pins.py`` makes, with
its host-clock calibration kernel stubbed out).  The functions are
enumerated from the source (every ``def``, methods and nested ones
included), so a function no run calls is counted too.  Per package the
table gives how many functions there are, how many were reached, and
how many were not, with their lines (a function nested in an unreached
one adds no lines of its own).  ``--list`` prints those unreached
functions instead, as ``package  path:line  name  lines`` (the name
qualified by its classes and functions), leaving out the nested ones.

Code that runs in a subprocess is invisible to the hook.  Takes a few
seconds.  Exit status 0; the table is advisory.

``--unread`` is a census of write-only state, from the AST alone (it
runs nothing): every attribute stored, and every class-level annotated
field declared, under ``src/repro`` whose name is never loaded as an
attribute in ``src/``, ``tools/``, ``bench/``, ``examples/`` or
``reprolint/``.  A string constant of the same name counts as a read,
for ``getattr`` callers; sunder and dunder names are skipped.  Each is
printed once, at its first store, as ``package  path:line  name``
(``Class.name`` where the class is known).  The match is by name, so a
write-only attribute that shares its name with one that is read
elsewhere is missed.
"""

import argparse
import ast
import contextlib
import io
import pathlib
import runpy
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


class Function(NamedTuple):
    path: pathlib.Path
    first_line: int       # what the code object reports: the first decorator
    name: str             # qualified: Class.method, outer.inner
    lines: int
    parent: Optional[Tuple[str, int]]   # the enclosing function's key


def functions() -> Dict[Tuple[str, int], Function]:
    """Every ``def`` under the package, by (file, first line)."""
    found: Dict[Tuple[str, int], Function] = {}

    def visit(node: ast.AST, path: pathlib.Path,
              parent: Optional[Tuple[str, int]], scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                key = (str(path), first)
                found[key] = Function(path, first, scope + child.name,
                                      child.end_lineno - first + 1, parent)
                visit(child, path, key, f"{scope}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, parent, f"{scope}{child.name}.")
            else:
                visit(child, path, parent, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, None, "")
    return found


READERS = tuple(ROOT / part for part in
                ("src", "tools", "bench", "examples", "reprolint"))


def unread(package: pathlib.Path = PACKAGE,
           readers: Sequence[pathlib.Path] = READERS,
           ) -> List[Tuple[pathlib.Path, int, str]]:
    """(path, line, name) of every attribute stored or class field
    declared under ``package`` whose name nothing under ``readers``
    loads."""
    read: Set[str] = set()
    for root in readers:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(
                        node.value, str):
                    read.add(node.value)
    stored: Dict[str, Tuple[pathlib.Path, int, str]] = {}

    def visit(node: ast.AST, path: pathlib.Path, cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = qualified = None
            if isinstance(child, ast.ClassDef):
                visit(child, path, child.name)
                continue
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Store)):
                name = child.attr
                on_self = (isinstance(child.value, ast.Name)
                           and child.value.id == "self")
                qualified = f"{cls}.{name}" if cls and on_self else name
            elif (isinstance(child, ast.AnnAssign)
                  and isinstance(node, ast.ClassDef)
                  and isinstance(child.target, ast.Name)):
                name = child.target.id
                qualified = f"{cls}.{name}"
            if (name is not None and name not in read
                    and not (name.startswith("_") and name.endswith("_"))):
                stored.setdefault(name, (path, child.lineno, qualified))
            visit(child, path, cls)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return list(stored.values())


def reached_code() -> Set[Tuple[str, int]]:
    """(file, first line) of every code object called during the runs."""
    from bench import clock, rep
    from bench.__main__ import DEFAULT_SEED, QUICK_SCALE
    from bench.inputs import WORKLOADS

    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()), mock.patch.object(
            clock, "reference_kernel",
            lambda: (clock.REFERENCE_S, clock.REFERENCE_S)):
        sys.setprofile(hook)
        try:
            for example in sorted((ROOT / "examples").glob("*.py")):
                runpy.run_path(str(example), run_name="__main__")
            for workload in WORKLOADS:
                rep.run({"workload": workload, "seed": DEFAULT_SEED,
                         "scale": QUICK_SCALE, "mode": "dark"})
        finally:
            sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in seen}


def package_of(path: pathlib.Path) -> str:
    relative = path.relative_to(PACKAGE)
    return relative.parts[0] if len(relative.parts) > 1 else "repro"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--list", action="store_true",
                        help="print every unreached function, not the table")
    parser.add_argument("--unread", action="store_true",
                        help="print every attribute stored that nothing "
                             "reads (runs nothing)")
    args = parser.parse_args(argv)
    if args.unread:
        for path, line, name in unread():
            print(f"{package_of(path)}  {path.relative_to(ROOT)}:{line}  "
                  f"{name}")
        return 0
    every = functions()
    reached = reached_code() & every.keys()
    if args.list:
        for key, function in every.items():
            if key not in reached and (function.parent is None
                                       or function.parent in reached):
                print(f"{package_of(function.path)}  "
                      f"{function.path.relative_to(ROOT)}:"
                      f"{function.first_line}  {function.name}  "
                      f"{function.lines}")
        return 0
    rows: Dict[str, List[int]] = {}
    for key, function in every.items():
        row = rows.setdefault(package_of(function.path), [0, 0, 0, 0])
        row[0] += 1
        if key in reached:
            row[1] += 1
            continue
        row[2] += 1
        if function.parent is None or function.parent in reached:
            row[3] += function.lines
    print("| package | functions | reached | not reached (functions, lines) |")
    print("|---|---:|---:|---:|")
    for package in sorted(rows):
        total, hit, missed, lines = rows[package]
        print(f"| {package} | {total} | {hit} | {missed}, {lines} |")
    totals = [sum(column) for column in zip(*rows.values())]
    print(f"| total | {totals[0]} | {totals[1]} | {totals[2]}, {totals[3]} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
