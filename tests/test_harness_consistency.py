"""Meta-tests keeping the experiment index and docs in sync.

A reproduction's credibility depends on its index being truthful:
every experiment DESIGN.md promises must name a tier-1 test file or a
benchmark workload that exists and carries it, and EXPERIMENTS.md must
point at the same homes.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENT_ROW = re.compile(r"^\| (E\d+b?) \|(?:[^|]*\|){3}([^|]*)\|", re.M)


def experiment_homes():
    """``{experiment: (tests/ files, bench workloads)}`` from the
    "Checked by" column of DESIGN.md's per-experiment index."""
    design = (ROOT / "DESIGN.md").read_text()
    return {exp: (set(re.findall(r"`(tests/test_[a-z0-9_]+\.py)`", cell)),
                  set(re.findall(r"`bench --workload ([a-z_]+)`", cell)))
            for exp, cell in EXPERIMENT_ROW.findall(design)}


def bench_workloads():
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {workload["name"] for workload in catalogue["workloads"]}


def test_every_design_bench_reference_exists():
    homes = experiment_homes()
    assert len(homes) >= 15, "DESIGN.md per-experiment index not found"
    homeless = {exp for exp, (files, workloads) in homes.items()
                if not files | workloads}
    assert not homeless, f"experiments checked by nothing: {homeless}"
    missing = {name for files, _ in homes.values() for name in files
               if not (ROOT / name).is_file()}
    missing |= {workload for _, workloads in homes.values()
                for workload in workloads} - bench_workloads()
    assert not missing, f"DESIGN.md names absent homes: {missing}"


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
    """Every benchmark workload and the tier-1 file of the paper's
    figures carry an experiment in DESIGN.md's index."""
    files, workloads = set(), set()
    for row_files, row_workloads in experiment_homes().values():
        files |= row_files
        workloads |= row_workloads
    assert "tests/test_paper_figures.py" in files
    unindexed = bench_workloads() - workloads
    assert not unindexed, f"workloads missing from DESIGN.md: {unindexed}"


def test_every_bench_file_is_indexed_in_experiments():
    """EXPERIMENTS.md points each experiment at the homes DESIGN.md
    names for it."""
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    sections = dict(re.findall(r"^## (E\d+b?) —(.*?)(?=^## |\Z)",
                               experiments, re.M | re.S))
    for exp, (files, workloads) in experiment_homes().items():
        assert exp in sections, f"EXPERIMENTS.md has no {exp} section"
        absent = {name for name in files | workloads
                  if name not in sections[exp]}
        assert not absent, f"EXPERIMENTS.md {exp} does not cite {absent}"


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
