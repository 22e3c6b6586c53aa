"""Command-line driver behind ``tools/reprolint.py``.

Exit status: 0 when clean (no violations, no parse errors, no stale
baseline entries, no unused or unjustified suppressions — the same bar
the pytest gate and the blocking CI job enforce), 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Optional, Sequence

from repro.obs.hostclock import wall_clock

from .callgraph import render_graph_json
from .lint import Baseline, ProjectContext, default_config, lint_paths
from .protocol import render_protocol_json
from .reporters import (regenerate_baseline, render_json_report,
                        render_text_report)

DEFAULT_BASELINE = "tools/reprolint_baseline.json"


def _write_payload(destination: str, payload: str) -> None:
    if destination == "-":
        sys.stdout.write(payload)
    else:
        pathlib.Path(destination).write_text(payload, encoding="utf-8")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="determinism & sim-discipline lint for the "
                    "reproduction (rules: docs/STATIC_ANALYSIS.md)")
    parser.add_argument("paths", nargs="*", default=["src", "reprolint"],
                        help="files or directories to lint (default: src "
                             "reprolint)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the JSON report to FILE "
                             "('-' for stdout)")
    parser.add_argument("--baseline", metavar="FILE",
                        default=None,
                        help=f"baseline file (default: {DEFAULT_BASELINE} "
                             "under the repo root when present)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept current violations into the baseline "
                             "and rewrite it")
    parser.add_argument("--root", metavar="DIR", default=None,
                        help="repo root for relative paths and the "
                             "observability catalogue (default: detected)")
    parser.add_argument("--graph-dump", metavar="FILE", default=None,
                        help="write the whole-program call-graph/taint "
                             "JSON to FILE ('-' for stdout)")
    parser.add_argument("--protocol-dump", metavar="FILE", default=None,
                        help="write the extracted protocol-surface JSON "
                             "to FILE ('-' for stdout)")
    parser.add_argument("--budget", metavar="SECONDS", type=float,
                        default=None,
                        help="advisory wall-clock budget; overruns are "
                             "reported (and noted in "
                             "$GITHUB_STEP_SUMMARY) but never fail the "
                             "run")
    parser.add_argument("--verbose", action="store_true",
                        help="list suppressed violations too")
    args = parser.parse_args(argv)

    started = wall_clock()
    root = pathlib.Path(args.root).resolve() if args.root else _detect_root()
    baseline_path = (pathlib.Path(args.baseline) if args.baseline
                     else (root / DEFAULT_BASELINE if root else
                           pathlib.Path(DEFAULT_BASELINE)))
    baseline = Baseline.load(baseline_path)
    config = default_config(root)
    result = lint_paths([pathlib.Path(p) for p in args.paths],
                        config=config, baseline=baseline, root=root)

    if args.write_baseline:
        new_baseline = regenerate_baseline(result)
        baseline_path.write_text(new_baseline.to_json(), encoding="utf-8")
        print(f"reprolint: wrote {len(new_baseline.fingerprints)} "
              f"fingerprint(s) to {baseline_path}")
        return 0

    print(render_text_report(result, verbose=args.verbose))
    if args.json:
        payload = render_json_report(result)
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            pathlib.Path(args.json).write_text(payload, encoding="utf-8")
    if args.graph_dump or args.protocol_dump:
        # Parse-error-only runs have no project; dump an empty one so
        # the artifact is always well-formed JSON.
        project = result.project or ProjectContext([], config)
        if args.graph_dump:
            _write_payload(args.graph_dump, json.dumps(
                render_graph_json(project), indent=2, sort_keys=True) + "\n")
        if args.protocol_dump:
            _write_payload(args.protocol_dump, json.dumps(
                render_protocol_json(project), indent=2,
                sort_keys=True) + "\n")
    if args.budget is not None:
        elapsed = wall_clock() - started
        status = "OVER" if elapsed > args.budget else "within"
        note = (f"reprolint wall clock: {elapsed:.2f}s — {status} the "
                f"advisory budget of {args.budget:.1f}s "
                f"({result.files_scanned} files)")
        print(note)
        summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary_path:
            with open(summary_path, "a", encoding="utf-8") as handle:
                handle.write(f"- {note}\n")
    clean = (result.ok and not result.stale_baseline
             and not result.unused_suppressions
             and not result.unjustified_suppressions)
    return 0 if clean else 1


def _detect_root() -> Optional[pathlib.Path]:
    here = pathlib.Path.cwd().resolve()
    for candidate in (here, *here.parents):
        if (candidate / "docs" / "OBSERVABILITY.md").is_file():
            return candidate
    package_root = pathlib.Path(__file__).resolve()
    for candidate in package_root.parents:
        if (candidate / "docs" / "OBSERVABILITY.md").is_file():
            return candidate
    return None


if __name__ == "__main__":  # pragma: no cover - exercised via tools/
    raise SystemExit(main())
