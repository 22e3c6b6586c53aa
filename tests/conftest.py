"""Pytest fixtures shared by the whole suite."""

import os
import pathlib
import re

import pytest
from hypothesis import settings

from repro import World

# ``pytest --hypothesis-profile=search``: the randomised end-to-end
# property (tests/test_end_to_end_properties.py) runs this many
# derandomised examples instead of tier-1's 20.
settings.register_profile("search", max_examples=400, derandomize=True,
                          deadline=None)


def pytest_addoption(parser):
    parser.addoption(
        "--full-sweep", action="store_true",
        help="run every instant of the crash sweeps marked full_sweep "
             "(tier-1 runs a stride of them)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "full_sweep: a sweep instant beyond tier-1's stride; "
                   "runs under --full-sweep only")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--full-sweep"):
        return
    beyond = [item for item in items if item.get_closest_marker("full_sweep")]
    if beyond:
        config.hook.pytest_deselected(items=beyond)
        items[:] = [item for item in items
                    if not item.get_closest_marker("full_sweep")]


@pytest.fixture
def world():
    # The flight recorder is purely passive (no scheduler events, no
    # metrics), so arming it for every test changes nothing about the
    # run; on failure the hook below dumps the black box post-mortem.
    return World(seed=1234, flight=True)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """On test failure, dump every armed flight recorder the test held.

    Worlds reachable through fixture arguments whose recorder is armed
    and non-empty are written as canonical JSON to ``$FLIGHT_DUMP_DIR``
    (default ``.flight/``); CI uploads the directory as an artifact.
    """
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    worlds = [(name, value)
              for name, value in sorted(getattr(item, "funcargs", {}).items())
              if isinstance(value, World)
              and value.flight.enabled and value.flight.recorded]
    if not worlds:
        return
    dump_dir = pathlib.Path(os.environ.get("FLIGHT_DUMP_DIR", ".flight"))
    dump_dir.mkdir(parents=True, exist_ok=True)
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", item.nodeid)
    for name, value in worlds:
        path = dump_dir / f"{slug}--{name}.json"
        path.write_text(value.flight_json() + "\n", encoding="utf-8")
