"""Smoke-run every example script so the examples can never rot.

Each example is executed in-process (runpy) with stdout captured; a
non-zero amount of output and no exception is the pass criterion.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_cleanly(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.out.strip(), f"{script.name} produced no output"


def test_module_entry_point(capsys):
    from repro.__main__ import main
    assert main([]) == 0
    assert "replica agreement: OK" in capsys.readouterr().out


def test_module_entry_point_metrics_flag(capsys):
    from repro.__main__ import main
    assert main(["--metrics"]) == 0
    out = capsys.readouterr().out
    assert "metrics registry:" in out
    assert "gateway.req.latency" in out


def test_module_entry_point_metrics_json_deterministic(capsys):
    from repro.__main__ import main
    assert main(["--metrics-json", "--seed", "7"]) == 0
    first = capsys.readouterr().out.splitlines()[-1]
    assert main(["--metrics-json", "--seed", "7"]) == 0
    second = capsys.readouterr().out.splitlines()[-1]
    assert first.startswith('{"metrics":')
    assert first == second


def test_module_entry_point_flight_dump_flag(capsys):
    from repro.__main__ import main
    assert main(["--flight-dump"]) == 0
    json.loads(capsys.readouterr().out.splitlines()[-1])


def test_module_entry_point_trace_flag(capsys):
    from repro.__main__ import main
    assert main(["--trace"]) == 0
    assert "causal traces:" in capsys.readouterr().out


def test_module_entry_point_audit_flag(capsys):
    from repro.__main__ import main
    assert main(["--audit"]) == 0
    assert "replica agreement: OK" in capsys.readouterr().out
