"""The ``reprolint`` framework: AST lint rules over the source tree.

One :class:`LintRule` encodes one repo invariant (a *determinism*,
*sim-discipline*, *observability*, or *audit* contract — see
:mod:`repro.analysis.rules` and docs/STATIC_ANALYSIS.md).  The driver
parses each file once, hands every registered rule a
:class:`LintContext`, and folds the resulting :class:`Violation`
stream through the two escape hatches:

* **inline suppressions** — ``# reprolint: disable=DET001 -- why`` on
  the offending line (or alone on the line above), or
  ``# reprolint: disable-file=DET001 -- why`` anywhere for the whole
  file.  A suppression without a ``-- why`` justification is counted
  separately so the pytest gate can refuse it; a suppression that
  matches nothing is reported as *unused* so they cannot rot.
* **the committed baseline** — a JSON list of violation fingerprints
  accepted at adoption time.  Fingerprints hash the *source line
  text*, not the line number, so unrelated edits do not invalidate
  them.  This repo's baseline is empty and the gate keeps it that way.

``lint_source`` is the single-file entry point (used by the fixture
tests); ``lint_paths`` walks directories and is what the CLIs call.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple, Type, TypeVar, cast)

#: Deterministic (simulation-driven) package prefixes: code under these
#: runs inside scheduler events, so its behaviour must be a pure
#: function of the seed.
DETERMINISTIC_PREFIXES: Tuple[str, ...] = (
    "repro.sim", "repro.totem", "repro.core", "repro.eternal",
    "repro.orb", "repro.iiop",
)

#: Modules that must not block, sleep, thread, or touch real sockets:
#: every one of their "I/O" operations is a simulated event.
SIM_ONLY_PREFIXES: Tuple[str, ...] = (
    "repro.sim", "repro.totem", "repro.core", "repro.eternal",
)

#: Modules whose classes own audit-registered stateful collections.
AUDIT_MODULES: Tuple[str, ...] = (
    "repro.core.gateway", "repro.core.duplicates",
    "repro.core.gateway_pool",
    "repro.eternal.replication", "repro.eternal.egress",
    "repro.totem.member",
)

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*"
    r"(?P<codes>[A-Z]{2,4}\d{3}(?:\s*,\s*[A-Z]{2,4}\d{3})*)"
    r"(?P<rest>.*)$")
_MODULE_RE = re.compile(r"#\s*reprolint:\s*module\s*=\s*(?P<module>[\w.]+)")
_JUSTIFY_RE = re.compile(r"--\s*(?P<why>\S.*)$")


@dataclass(frozen=True)
class Violation:
    """One rule finding, anchored to a source line."""

    code: str
    message: str
    path: str          # repo-relative (or as-given) posix path
    line: int          # 1-based physical line of the offending node
    col: int           # 0-based column
    snippet: str = ""  # stripped source line, for reports & fingerprints

    def fingerprint(self, index: int = 0) -> str:
        """Stable identity for baselining: path + code + line *text*.

        ``index`` disambiguates identical lines (the N-th identical
        occurrence keeps the N-th fingerprint), so baselines survive
        pure line-number drift but not content changes.
        """
        digest = hashlib.sha256(
            f"{self.path}\x00{self.code}\x00{self.snippet}\x00{index}"
            .encode("utf-8")).hexdigest()[:16]
        return f"{self.path}:{self.code}:{digest}"

    def describe(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.code} {self.message}")


@dataclass
class Suppression:
    """One parsed ``# reprolint: disable[-file]=...`` directive."""

    path: str
    line: int                    # line the directive sits on
    codes: Tuple[str, ...]
    file_level: bool
    justification: str           # text after ``--``; "" when missing
    applies_to_line: Optional[int] = None  # None for file-level
    used: bool = False

    def matches(self, violation: Violation) -> bool:
        if violation.code not in self.codes:
            return False
        if self.file_level:
            return True
        return violation.line == self.applies_to_line


class LintContext:
    """Everything one rule needs to inspect one parsed file."""

    def __init__(self, path: str, module: str, source: str,
                 tree: ast.Module, config: "LintConfig") -> None:
        self.path = path
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.config = config

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def violation(self, code: str, message: str, node: ast.AST) -> Violation:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(code=code, message=message, path=self.path,
                         line=lineno, col=col,
                         snippet=self.line_text(lineno))

    def module_in(self, prefixes: Sequence[str]) -> bool:
        return any(self.module == p or self.module.startswith(p + ".")
                   for p in prefixes)


@dataclass
class LintConfig:
    """Tunable scopes and cross-file inputs for the rule pack."""

    deterministic_prefixes: Tuple[str, ...] = DETERMINISTIC_PREFIXES
    sim_only_prefixes: Tuple[str, ...] = SIM_ONLY_PREFIXES
    audit_modules: Tuple[str, ...] = AUDIT_MODULES
    #: Modules holding GIOP wire codecs: top-level ``encode_X``/
    #: ``decode_X`` functions here must pair up (FLOW003), and the
    #: ``MsgType`` octet constants defined here anchor the GIOP
    #: send/dispatch cross-check.
    giop_codec_modules: Tuple[str, ...] = ("repro.iiop.giop",)
    #: Class names treated as the domain's message-kind enums: every
    #: member must have both a live send site (``kind=MsgKind.X``) and
    #: a live dispatch site (FLOW001/FLOW002).
    msg_kind_classes: Tuple[str, ...] = ("MsgKind",)
    #: Modules whose top-level classes are Totem wire messages; each
    #: must be both constructed and dispatched somewhere in the tree.
    totem_message_modules: Tuple[str, ...] = ("repro.totem.messages",)
    #: Observability catalogue: exact metric/span names plus ``foo.*``
    #: wildcard prefixes, parsed from docs/OBSERVABILITY.md.  ``None``
    #: disables OBS001 (no doc available to check against).
    catalogue_names: Optional[Set[str]] = None
    catalogue_prefixes: Tuple[str, ...] = ()
    catalogue_source: str = ""

    def catalogued(self, name: str) -> bool:
        if self.catalogue_names is None:
            return True
        if name in self.catalogue_names:
            return True
        return any(name.startswith(p) for p in self.catalogue_prefixes)


_CATALOGUE_TOKEN_RE = re.compile(
    r"`(?P<name>[a-z0-9_]+(?:\.(?:[a-z0-9_]+|\*))+)`")


def load_catalogue(doc_path: pathlib.Path) -> Tuple[Set[str], Tuple[str, ...]]:
    """Extract backticked metric/span names (and ``x.*`` wildcard
    prefixes) from the first cell of the observability catalogue's
    table rows; a name mentioned in prose catalogues nothing."""
    names: Set[str] = set()
    prefixes: List[str] = []
    text = doc_path.read_text(encoding="utf-8")
    first_cells = [line.split("|")[1] for line in text.splitlines()
                   if line.startswith("|")]
    for match in _CATALOGUE_TOKEN_RE.finditer("\n".join(first_cells)):
        token = match.group("name")
        if token.endswith(".*"):
            prefixes.append(token[:-1])  # keep the trailing dot
        else:
            names.add(token)
    return names, tuple(sorted(set(prefixes)))


def default_config(root: Optional[pathlib.Path] = None) -> LintConfig:
    """The repo's own configuration: scopes above + the live catalogue."""
    config = LintConfig()
    base = root if root is not None else _guess_repo_root()
    if base is not None:
        doc = base / "docs" / "OBSERVABILITY.md"
        if doc.is_file():
            names, prefixes = load_catalogue(doc)
            config.catalogue_names = names
            config.catalogue_prefixes = prefixes
            config.catalogue_source = str(doc)
    return config


def _guess_repo_root() -> Optional[pathlib.Path]:
    here = pathlib.Path(__file__).resolve()
    for ancestor in here.parents:
        if (ancestor / "docs" / "OBSERVABILITY.md").is_file():
            return ancestor
    return None


class LintRule:
    """Base class: subclass, set ``code``/``name``, implement ``check``."""

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        raise NotImplementedError

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.code:
            _RULES[cls.code] = cls


_RULES: Dict[str, Type[LintRule]] = {}


def registered_rules() -> Dict[str, Type[LintRule]]:
    """Code -> rule class for every registered rule (imports the pack)."""
    from . import rules as _rules  # noqa: F401  (registration side effect)
    return dict(sorted(_RULES.items()))


_CacheT = TypeVar("_CacheT")


class ProjectContext:
    """Every parsed file of one lint run, for whole-program rules.

    Expensive shared artifacts (the call graph, the protocol surface)
    are built once per run and memoised here so each project rule that
    needs them pays nothing beyond the first construction.
    """

    def __init__(self, contexts: Sequence[LintContext],
                 config: LintConfig,
                 suppressions: Optional[Dict[str, List[Suppression]]] = None
                 ) -> None:
        self.contexts = list(contexts)
        self.config = config
        #: path -> parsed suppressions of that file.  Taint analysis
        #: consults these: a sink whose line carries a justified
        #: DET001/DET002/SIM001 suppression is a sanctioned boundary
        #: and must not propagate.
        self.suppressions: Dict[str, List[Suppression]] = dict(
            suppressions or {})
        self._cache: Dict[str, object] = {}

    def cached(self, key: str, build: Callable[[], _CacheT]) -> _CacheT:
        if key not in self._cache:
            self._cache[key] = build()
        return cast(_CacheT, self._cache[key])


class ProjectRule:
    """Whole-program rule: sees every parsed file of the run at once.

    Subclass, set ``code``/``name``, implement ``check_project``.
    Violations are routed back through the owning file's inline
    suppressions and the baseline exactly like per-file findings.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        raise NotImplementedError

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.code:
            _PROJECT_RULES[cls.code] = cls


_PROJECT_RULES: Dict[str, Type[ProjectRule]] = {}


def registered_project_rules() -> Dict[str, Type[ProjectRule]]:
    """Code -> project-rule class (imports the whole-program packs)."""
    from . import callgraph as _callgraph  # noqa: F401  (registration)
    from . import protocol as _protocol    # noqa: F401  (registration)
    from . import rules as _rules          # noqa: F401  (registration)
    return dict(sorted(_PROJECT_RULES.items()))


# ----------------------------------------------------------------------
# Suppression & module-directive parsing
# ----------------------------------------------------------------------

def _comment_tokens(lines: Sequence[str]
                    ) -> Iterator[Tuple[int, int, str]]:
    """(line, col, text) of every real ``#`` comment.

    Tokenized, not regexed, so directive syntax *quoted in docstrings*
    (this repo documents itself) is never mistaken for a directive.
    Tokenize errors end the scan early; such files surface as parse
    errors through the AST pass anyway.
    """
    reader = io.StringIO("\n".join(lines) + "\n").readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


def parse_suppressions(path: str, lines: Sequence[str]) -> List[Suppression]:
    found: List[Suppression] = []
    for idx, col, text in _comment_tokens(lines):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = tuple(c.strip() for c in match.group("codes").split(","))
        justify = _JUSTIFY_RE.search(match.group("rest") or "")
        file_level = match.group(1) == "disable-file"
        # A directive alone on its line guards the *next* line; one at
        # the end of a code line guards that line.
        bare = not lines[idx - 1][:col].strip()
        applies = None if file_level else (idx + 1 if bare else idx)
        found.append(Suppression(
            path=path, line=idx, codes=codes, file_level=file_level,
            justification=justify.group("why").strip() if justify else "",
            applies_to_line=applies))
    return found


def parse_module_directive(lines: Sequence[str]) -> Optional[str]:
    for idx, _, text in _comment_tokens(lines):
        if idx > 20:
            return None
        match = _MODULE_RE.search(text)
        if match is not None:
            return match.group("module")
    return None


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------

class Baseline:
    """The committed set of accepted violation fingerprints."""

    SCHEMA = 1

    def __init__(self, fingerprints: Optional[Set[str]] = None) -> None:
        self.fingerprints: Set[str] = set(fingerprints or ())

    @classmethod
    def load(cls, path: pathlib.Path) -> "Baseline":
        if not path.is_file():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls(set(data.get("fingerprints", [])))

    def to_json(self) -> str:
        payload = {"schema": self.SCHEMA,
                   "fingerprints": sorted(self.fingerprints)}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def fingerprints_for(violations: Sequence[Violation]) -> List[str]:
        """Fingerprints with per-identical-line occurrence indices."""
        seen: Dict[Tuple[str, str, str], int] = {}
        result: List[str] = []
        for violation in violations:
            key = (violation.path, violation.code, violation.snippet)
            index = seen.get(key, 0)
            seen[key] = index + 1
            result.append(violation.fingerprint(index))
        return result


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------

@dataclass
class FileResult:
    """Per-file lint outcome (before baseline filtering)."""

    path: str
    module: str
    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Tuple[Violation, Suppression]] = field(
        default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    parse_error: Optional[str] = None


@dataclass
class LintResult:
    """Aggregate outcome of one lint run."""

    files: List[FileResult] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    baselined: List[Violation] = field(default_factory=list)
    stale_baseline: List[str] = field(default_factory=list)
    #: The shared whole-program context of this run (``None`` when no
    #: project rules ran).  The CLI reuses it for ``--graph-dump`` /
    #: ``--protocol-dump`` so the dumps describe exactly the linted set.
    project: Optional[ProjectContext] = field(default=None, repr=False)

    @property
    def suppressed(self) -> List[Tuple[Violation, Suppression]]:
        return [pair for f in self.files for pair in f.suppressed]

    @property
    def unused_suppressions(self) -> List[Suppression]:
        return [s for f in self.files for s in f.suppressions if not s.used]

    @property
    def unjustified_suppressions(self) -> List[Suppression]:
        return [s for f in self.files for s in f.suppressions
                if s.used and not s.justification]

    @property
    def parse_errors(self) -> List[Tuple[str, str]]:
        return [(f.path, f.parse_error) for f in self.files
                if f.parse_error is not None]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    @property
    def files_scanned(self) -> int:
        return len(self.files)


def module_name_for(path: pathlib.Path) -> str:
    """Dotted module path; everything after a ``src`` path component."""
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _lint_one(source: str, path: str, module: str, config: LintConfig,
              rules: Sequence[LintRule]
              ) -> Tuple[FileResult, Optional[LintContext]]:
    """Lint one file with the per-file rules; return the parsed context
    too (``None`` on a parse error) for the whole-program passes."""
    result = FileResult(path=path, module=module)
    lines = source.splitlines()
    directive = parse_module_directive(lines)
    if directive is not None:
        result.module = module = directive
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.parse_error = f"{type(exc).__name__}: {exc.msg} (line {exc.lineno})"
        return result, None
    ctx = LintContext(path=path, module=module, source=source,
                      tree=tree, config=config)
    raw: List[Violation] = []
    for rule in rules:
        raw.extend(rule.check(ctx))
    raw.sort(key=lambda v: (v.line, v.col, v.code))
    result.suppressions = parse_suppressions(path, lines)
    for violation in raw:
        _file_or_suppress(result, violation)
    return result, ctx


def _file_or_suppress(result: FileResult, violation: Violation) -> None:
    """Route one violation through the file's inline suppressions."""
    for supp in result.suppressions:
        if supp.matches(violation):
            supp.used = True
            result.suppressed.append((violation, supp))
            return
    result.violations.append(violation)


def _run_project_rules(results: Sequence[FileResult],
                       contexts: Sequence[LintContext],
                       config: LintConfig,
                       project_rules: Sequence[ProjectRule]
                       ) -> Optional[ProjectContext]:
    """Run the whole-program passes and merge their violations into the
    owning files (through each file's suppressions)."""
    if not contexts:
        return None
    project = ProjectContext(
        contexts, config,
        suppressions={r.path: r.suppressions for r in results})
    by_path = {result.path: result for result in results}
    raw: List[Violation] = []
    for rule in project_rules:
        raw.extend(rule.check_project(project))
    raw.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    for violation in raw:
        owner = by_path.get(violation.path)
        if owner is None:  # defensive: rules only see linted files
            continue
        _file_or_suppress(owner, violation)
    for result in results:
        result.violations.sort(key=lambda v: (v.line, v.col, v.code))
    return project


def lint_source(source: str, path: str = "<memory>",
                module: Optional[str] = None,
                config: Optional[LintConfig] = None,
                rules: Optional[Sequence[LintRule]] = None,
                project_rules: Optional[Sequence[ProjectRule]] = None
                ) -> FileResult:
    """Single-blob entry point (fixture tests, editor integrations).

    The whole-program rules run too, over a one-file project — call
    chains, dispatch tables, and protocol surfaces wholly contained in
    the blob are analysed exactly as they would be in a full run.
    Passing an explicit (possibly empty) ``rules``/``project_rules``
    sequence narrows the run to just those rules.
    """
    if module is None:
        module = module_name_for(pathlib.Path(path))
    if config is None:
        config = default_config()
    active = (list(rules) if rules is not None
              else [cls() for cls in registered_rules().values()])
    result, ctx = _lint_one(source, path, module, config, active)
    if ctx is not None:
        if project_rules is not None:
            active_project: List[ProjectRule] = list(project_rules)
        elif rules is not None:
            active_project = []  # explicit per-file rule set: no extras
        else:
            active_project = [cls()
                              for cls in registered_project_rules().values()]
        if active_project:
            _run_project_rules([result], [ctx], config, active_project)
    return result


def iter_python_files(paths: Sequence[pathlib.Path]) -> Iterator[pathlib.Path]:
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(p for p in path.rglob("*.py")
                              if "__pycache__" not in p.parts)


def lint_paths(paths: Sequence[pathlib.Path],
               config: Optional[LintConfig] = None,
               baseline: Optional[Baseline] = None,
               root: Optional[pathlib.Path] = None) -> LintResult:
    """Lint every ``.py`` under ``paths``; apply suppressions + baseline."""
    if config is None:
        config = default_config(root)
    if baseline is None:
        baseline = Baseline()
    result = LintResult()
    rules = [cls() for cls in registered_rules().values()]
    project_rules = [cls() for cls in registered_project_rules().values()]
    contexts: List[LintContext] = []
    for file_path in iter_python_files([pathlib.Path(p) for p in paths]):
        rel = _relative_to_root(file_path, root)
        source = file_path.read_text(encoding="utf-8")
        file_result, ctx = _lint_one(
            source, rel, module_name_for(file_path), config, rules)
        result.files.append(file_result)
        if ctx is not None:
            contexts.append(ctx)
    result.project = _run_project_rules(
        result.files, contexts, config, project_rules)
    all_new = [v for f in result.files for v in f.violations]
    matched: Set[str] = set()
    fingerprints = Baseline.fingerprints_for(all_new)
    for violation, fingerprint in zip(all_new, fingerprints):
        if fingerprint in baseline.fingerprints:
            matched.add(fingerprint)
            result.baselined.append(violation)
        else:
            result.violations.append(violation)
    result.stale_baseline = sorted(baseline.fingerprints - matched)
    return result


def _relative_to_root(path: pathlib.Path,
                      root: Optional[pathlib.Path]) -> str:
    resolved = path.resolve()
    candidates = [root] if root is not None else []
    candidates.append(pathlib.Path.cwd())
    for base in candidates:
        if base is None:
            continue
        try:
            return resolved.relative_to(base.resolve()).as_posix()
        except ValueError:
            continue
    return path.as_posix()
