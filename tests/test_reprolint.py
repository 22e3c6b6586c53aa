"""The reprolint gate: ``src/`` and ``reprolint/`` stay clean, the
baseline stays empty.

This is the pytest mirror of the blocking CI job and of
``tools/reprolint.py``'s exit status: no violations, no parse errors,
no stale baseline entries, no unused suppressions, and every remaining
suppression inline *and* justified.
"""

from __future__ import annotations

import json
import pathlib

from reprolint.lint import Baseline, default_config, lint_paths
from reprolint.reporters import json_report, regenerate_baseline

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
LINTED = [REPO_ROOT / "src", REPO_ROOT / "reprolint"]
BASELINE_PATH = REPO_ROOT / "tools" / "reprolint_baseline.json"


def run_lint():
    return lint_paths(LINTED, config=default_config(REPO_ROOT),
                      baseline=Baseline.load(BASELINE_PATH),
                      root=REPO_ROOT)


def test_src_is_lint_clean():
    result = run_lint()
    assert result.parse_errors == []
    assert result.violations == [], "\n".join(
        v.describe() for v in result.violations)
    assert result.unused_suppressions == [], "\n".join(
        f"{s.path}:{s.line}" for s in result.unused_suppressions)
    assert result.unjustified_suppressions == [], "\n".join(
        f"{s.path}:{s.line}" for s in result.unjustified_suppressions)
    assert result.stale_baseline == []


def test_committed_baseline_is_empty():
    """The acceptance bar for this repo: nothing hides in the baseline;
    every accepted exception is an inline, justified suppression."""
    data = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    assert data == {"schema": 1, "fingerprints": []}


def test_baseline_regeneration_reproduces_the_committed_file():
    """--write-baseline over a clean tree must write exactly the
    committed (empty) baseline — fingerprints are deterministic."""
    result = run_lint()
    regenerated = regenerate_baseline(result)
    assert json.loads(regenerated.to_json()) == json.loads(
        BASELINE_PATH.read_text(encoding="utf-8"))


def test_json_report_accounts_for_every_suppression():
    """The machine report must carry each justified suppression with
    the violation it hides, so 'suppression-first cleanliness' is
    auditable from the CI artifact alone."""
    report = json_report(run_lint())
    assert report["ok"] is True
    assert report["violations"] == []
    assert report["schema"] == 1
    assert report["files_scanned"] > 50
    suppressions = report["suppressions"]
    assert suppressions, "the repo documents its known exceptions inline"
    for entry in suppressions:
        assert entry["justification"], entry
        assert entry["suppresses"]["code"] in entry["codes"]
    # The known exception classes, and only those, are suppressed:
    # determinism boundaries (DET001/DET004), audited-by-design
    # collections (AUD001), client-side / header-only GIOP codecs
    # (FLOW002/FLOW003), and the one sanctioned swallow (EXC001).
    codes = {code for entry in suppressions for code in entry["codes"]}
    assert codes <= {"DET001", "DET004", "AUD001",
                     "FLOW002", "FLOW003", "EXC001"}
