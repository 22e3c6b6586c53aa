"""Meta-tests keeping the experiment harness and docs in sync.

A reproduction's credibility depends on its index being truthful:
every experiment DESIGN.md promises must have a runnable bench file,
and the tools that group results must know every bench file.
"""

import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
NON_BENCH = {"common", "workloads", "conftest"}


def bench_stems():
    return {p.stem for p in BENCH_DIR.glob("*.py")} - NON_BENCH


def test_every_design_bench_reference_exists():
    design = (ROOT / "DESIGN.md").read_text()
    referenced = set(re.findall(r"benchmarks/(bench_[a-z0-9_]+)\.py", design))
    assert referenced, "DESIGN.md lists no benches?"
    missing = {name for name in referenced
               if not (BENCH_DIR / f"{name}.py").exists()}
    assert not missing, f"DESIGN.md references absent benches: {missing}"


def test_every_design_module_reference_exists():
    """The Modules column of DESIGN.md's per-experiment index names
    `pkg.module` (or `pkg`, `pkg.*`) under ``src/repro/``."""
    design = (ROOT / "DESIGN.md").read_text()
    rows = re.findall(r"^\| E\d+b? \|(?:[^|]*\|){2}([^|]*)\|", design, re.M)
    assert len(rows) >= 15, "DESIGN.md per-experiment index not found"
    modules = {name for row in rows
               for name in re.findall(r"`([a-z_]+(?:\.[a-z_*]+)*)`", row)}
    assert {"core.gateway", "eternal.*", "totem"} <= modules
    src = ROOT / "src" / "repro"
    missing = set()
    for name in modules:
        path = src.joinpath(*name.removesuffix(".*").split("."))
        if not (path.is_dir() or path.with_suffix(".py").is_file()):
            missing.add(name)
    assert not missing, f"DESIGN.md names absent modules: {missing}"


def test_every_bench_file_is_indexed_in_design():
    design = (ROOT / "DESIGN.md").read_text()
    unindexed = {stem for stem in bench_stems() if stem not in design}
    assert not unindexed, f"benches missing from DESIGN.md: {unindexed}"


def test_every_bench_file_is_indexed_in_experiments():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    unindexed = {stem for stem in bench_stems() if stem not in experiments}
    assert not unindexed, f"benches missing from EXPERIMENTS.md: {unindexed}"


def test_run_experiments_tool_knows_every_bench():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from run_experiments import EXPERIMENT_OF_FILE
    finally:
        sys.path.pop(0)
    unknown = bench_stems() - set(EXPERIMENT_OF_FILE)
    assert not unknown, f"tools/run_experiments.py missing: {unknown}"


def test_every_example_is_listed_in_readme():
    readme = (ROOT / "README.md").read_text()
    for script in (ROOT / "examples").glob("*.py"):
        assert script.name in readme, f"{script.name} not in README"


def test_public_api_exports_resolve():
    import repro
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
    import repro.eternal
    for name in repro.eternal.__all__:
        assert getattr(repro.eternal, name, None) is not None, name
    import repro.core
    for name in repro.core.__all__:
        assert getattr(repro.core, name, None) is not None, name
    import repro.iiop
    for name in repro.iiop.__all__:
        assert getattr(repro.iiop, name, None) is not None, name


def test_every_public_module_has_a_docstring():
    import importlib
    packages = ["repro", "repro.sim", "repro.iiop", "repro.orb",
                "repro.totem", "repro.eternal", "repro.core", "repro.apps"]
    for package_name in packages:
        package = importlib.import_module(package_name)
        assert package.__doc__, f"{package_name} lacks a docstring"
        package_dir = Path(package.__file__).parent
        for module_path in package_dir.glob("*.py"):
            if module_path.stem.startswith("__"):
                continue
            module = importlib.import_module(
                f"{package_name}.{module_path.stem}")
            assert module.__doc__, f"{module.__name__} lacks a docstring"
