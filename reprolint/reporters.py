"""Text and JSON reporters over a :class:`~reprolint.lint.LintResult`.

The text form is for humans and CI logs; the JSON form is the machine
contract (schema 1): violation lists, baseline bookkeeping, and —
because the acceptance bar for this repo is "no violations, every
remaining suppression inline and justified" — a full accounting of
suppressions, including unused and unjustified ones.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from .lint import Baseline, LintResult

JSON_SCHEMA = 1


def render_text_report(result: LintResult, verbose: bool = False) -> str:
    lines = []
    for violation in result.violations:
        lines.append(violation.describe())
        if violation.snippet:
            lines.append(f"    {violation.snippet}")
    for path, error in result.parse_errors:
        lines.append(f"{path}:1:1: PARSE {error}")
    if verbose:
        for violation, supp in result.suppressed:
            why = supp.justification or "(no justification)"
            lines.append(f"{violation.describe()} [suppressed: {why}]")
    for supp in result.unused_suppressions:
        lines.append(f"{supp.path}:{supp.line}: UNUSED suppression for "
                     f"{','.join(supp.codes)} matches nothing; remove it")
    for supp in result.unjustified_suppressions:
        lines.append(f"{supp.path}:{supp.line}: UNJUSTIFIED suppression for "
                     f"{','.join(supp.codes)}; add `-- <reason>`")
    for fingerprint in result.stale_baseline:
        lines.append(f"baseline: STALE entry {fingerprint}; regenerate with "
                     "--write-baseline")
    lines.append(
        f"reprolint: {result.files_scanned} files, "
        f"{len(result.violations)} violation(s), "
        f"{len(result.suppressed)} suppressed, "
        f"{len(result.baselined)} baselined, "
        f"{len(result.unused_suppressions)} unused suppression(s), "
        f"{len(result.stale_baseline)} stale baseline entr(ies)")
    return "\n".join(lines)


def json_report(result: LintResult) -> Dict[str, Any]:
    def violation_dict(violation: Any) -> Dict[str, Any]:
        return {"code": violation.code, "path": violation.path,
                "line": violation.line, "col": violation.col,
                "message": violation.message, "snippet": violation.snippet}

    by_code: Dict[str, int] = {}
    for violation in result.violations:
        by_code[violation.code] = by_code.get(violation.code, 0) + 1
    return {
        "schema": JSON_SCHEMA,
        "files_scanned": result.files_scanned,
        "violations": [violation_dict(v) for v in result.violations],
        "violations_by_code": dict(sorted(by_code.items())),
        "suppressions": [
            {"path": s.path, "line": s.line, "codes": list(s.codes),
             "file_level": s.file_level, "justification": s.justification,
             "suppresses": violation_dict(v)}
            for v, s in result.suppressed],
        "unused_suppressions": [
            {"path": s.path, "line": s.line, "codes": list(s.codes)}
            for s in result.unused_suppressions],
        "unjustified_suppressions": [
            {"path": s.path, "line": s.line, "codes": list(s.codes)}
            for s in result.unjustified_suppressions],
        "baselined": [violation_dict(v) for v in result.baselined],
        "stale_baseline": list(result.stale_baseline),
        "parse_errors": [{"path": p, "error": e}
                         for p, e in result.parse_errors],
        "ok": result.ok,
    }


def render_json_report(result: LintResult) -> str:
    return json.dumps(json_report(result), indent=2, sort_keys=True) + "\n"


def regenerate_baseline(result: LintResult) -> Baseline:
    """A baseline accepting exactly the current unsuppressed findings."""
    violations = result.violations + result.baselined
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return Baseline(set(Baseline.fingerprints_for(violations)))
