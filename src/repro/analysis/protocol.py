"""Protocol-surface extraction + conformance rules (FLOW001/002/003).

The protocol surface of this reproduction has four families:

* **Domain control messages** — members of the ``MsgKind`` enum
  (``config.msg_kind_classes``).  A *send site* is a ``MsgKind.X``
  reference used as a call argument (``DomainMessage(kind=MsgKind.X)``);
  a *dispatch site* is one used in a comparison (``kind is MsgKind.X``,
  ``kind in (MsgKind.A, ...)``) or as a dict-dispatch key.
* **Totem wire messages** — top-level classes of
  ``config.totem_message_modules``.  A send site is a construction
  outside the defining module; a dispatch site is an ``isinstance``
  check or a class-keyed dict whose values are callables.
* **GIOP codecs** — top-level ``encode_X``/``decode_X`` functions of
  ``config.giop_codec_modules``, paired by suffix, plus the ``MsgType``
  octet constants (inventoried in the dump).
* **Observability kinds** — flight-recorder event kinds and trace span
  names (dump inventory only; the catalogue contract is OBS001's job).

Cross-checks:

* **FLOW001** — a message kind with send sites but no dispatch site:
  the wire can carry it, nothing will ever act on it.
* **FLOW002** — dead protocol surface: a kind dispatched but never
  sent, a kind neither sent nor dispatched, or a codec function no
  code in the project calls (resolved through the call graph, so
  package re-exports count).
* **FLOW003** — codec asymmetry: an ``encode_X`` with no ``decode_X``
  or vice versa.  Header-only messages that legitimately need no body
  decoder carry justified suppressions at the definition.

All extraction is over the lint run's own parsed files: linting a
subset of the tree (a single fixture file, one package) checks exactly
that subset's surface against itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import _aliases_for, _resolve, build_callgraph
from .lint import LintContext, ProjectContext, ProjectRule, Violation


@dataclass(frozen=True)
class Ref:
    """One source location inside the linted set."""

    path: str
    line: int
    col: int
    snippet: str = ""


@dataclass
class KindUsage:
    """Send/dispatch sites of one message-kind enum member."""

    member: str
    definition: Optional[Ref] = None
    sends: List[Ref] = field(default_factory=list)
    dispatches: List[Ref] = field(default_factory=list)


@dataclass
class WireClassUsage:
    """Construction/dispatch sites of one Totem wire-message class."""

    qname: str
    definition: Optional[Ref] = None
    constructs: List[Ref] = field(default_factory=list)
    dispatches: List[Ref] = field(default_factory=list)


@dataclass
class CodecPair:
    """The ``encode_X``/``decode_X`` functions for one message suffix."""

    suffix: str
    encoder: Optional[Ref] = None
    decoder: Optional[Ref] = None
    encoder_qname: Optional[str] = None
    decoder_qname: Optional[str] = None


@dataclass
class ProtocolSurface:
    """Everything the protocol rules cross-check, plus dump inventory."""

    #: kind-class name -> member name -> usage.
    kinds: Dict[str, Dict[str, KindUsage]] = field(default_factory=dict)
    #: wire-class qname -> usage.
    wire_classes: Dict[str, WireClassUsage] = field(default_factory=dict)
    #: codec suffix -> pair.
    codecs: Dict[str, CodecPair] = field(default_factory=dict)
    #: GIOP MsgType constant name -> octet value (dump inventory).
    giop_msg_types: Dict[str, int] = field(default_factory=dict)
    #: Flight-recorder event kinds seen at ``.record("a.b", ...)`` sites.
    flight_kinds: List[str] = field(default_factory=list)
    #: Trace span names seen at ``.start(_, "a.b")``/``.instant`` sites.
    span_names: List[str] = field(default_factory=list)


def _ref(ctx: LintContext, node: ast.AST) -> Ref:
    line = getattr(node, "lineno", 1)
    return Ref(path=ctx.path, line=line,
               col=getattr(node, "col_offset", 0),
               snippet=ctx.line_text(line))


def _callable_ish(node: ast.AST) -> bool:
    """Would this dict value dispatch (a handler), not just label?"""
    return isinstance(node, (ast.Name, ast.Attribute, ast.Lambda))


class _SurfaceBuilder:
    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.config = project.config
        self.surface = ProtocolSurface()
        self._wire_by_name: Dict[str, str] = {}  # class name -> qname
        #: wire-class qname -> names its field annotations mention.
        self._field_types: Dict[str, Set[str]] = {}

    def build(self) -> ProtocolSurface:
        for ctx in self.project.contexts:
            self._collect_definitions(ctx)
        for ctx in self.project.contexts:
            aliases = _aliases_for(ctx)
            self._collect_kind_sites(ctx)
            self._collect_wire_sites(ctx, aliases)
            self._collect_obs_names(ctx)
        # A wire class that is a field of another travels inside it (a
        # RegularMessage in a Frame): dispatching the carrier unpacks it.
        wire = self.surface.wire_classes
        for carrier, names in self._field_types.items():
            for carried in {self._wire_by_name.get(name) for name in names}:
                if carried is not None and carried != carrier:
                    wire[carried].dispatches.extend(wire[carrier].dispatches)
        self.surface.flight_kinds = sorted(set(self.surface.flight_kinds))
        self.surface.span_names = sorted(set(self.surface.span_names))
        return self.surface

    # -- definitions ---------------------------------------------------

    def _collect_definitions(self, ctx: LintContext) -> None:
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                if node.name in self.config.msg_kind_classes:
                    self._collect_kind_members(ctx, node)
                if ctx.module in self.config.totem_message_modules:
                    qname = f"{ctx.module}.{node.name}"
                    self.surface.wire_classes[qname] = WireClassUsage(
                        qname=qname, definition=_ref(ctx, node))
                    self._wire_by_name[node.name] = qname
                    self._field_types[qname] = {
                        sub.id for item in node.body
                        if isinstance(item, ast.AnnAssign)
                        for sub in ast.walk(item.annotation)
                        if isinstance(sub, ast.Name)}
                if (node.name == "MsgType"
                        and ctx.module in self.config.giop_codec_modules):
                    self._collect_msg_types(node)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and ctx.module in self.config.giop_codec_modules):
                for prefix, slot in (("encode_", "encoder"),
                                     ("decode_", "decoder")):
                    if not node.name.startswith(prefix):
                        continue
                    suffix = node.name[len(prefix):]
                    pair = self.surface.codecs.setdefault(
                        suffix, CodecPair(suffix=suffix))
                    setattr(pair, slot, _ref(ctx, node))
                    setattr(pair, f"{slot}_qname",
                            f"{ctx.module}.{node.name}")

    def _collect_kind_members(self, ctx: LintContext,
                              node: ast.ClassDef) -> None:
        table = self.surface.kinds.setdefault(node.name, {})
        for item in node.body:
            if (isinstance(item, ast.Assign) and len(item.targets) == 1
                    and isinstance(item.targets[0], ast.Name)
                    and item.targets[0].id.isupper()):
                member = item.targets[0].id
                table.setdefault(member, KindUsage(member=member))
                table[member].definition = _ref(ctx, item)

    def _collect_msg_types(self, node: ast.ClassDef) -> None:
        for item in node.body:
            if (isinstance(item, ast.Assign) and len(item.targets) == 1
                    and isinstance(item.targets[0], ast.Name)
                    and isinstance(item.value, ast.Constant)
                    and isinstance(item.value.value, int)):
                self.surface.giop_msg_types[item.targets[0].id] = (
                    item.value.value)

    # -- MsgKind send/dispatch sites ----------------------------------

    def _kind_member(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """(kind-class name, member) if ``node`` is ``MsgKind.X``."""
        if not isinstance(node, ast.Attribute):
            return None
        holder = node.value
        name = (holder.id if isinstance(holder, ast.Name)
                else holder.attr if isinstance(holder, ast.Attribute)
                else None)
        if name is None or name not in self.surface.kinds:
            return None
        if node.attr in self.surface.kinds[name]:
            return name, node.attr
        return None

    def _note_kind(self, ctx: LintContext, node: ast.AST,
                   bucket: str) -> None:
        found = self._kind_member(node)
        if found is None:
            return
        cls_name, member = found
        usage = self.surface.kinds[cls_name][member]
        refs = usage.sends if bucket == "send" else usage.dispatches
        refs.append(_ref(ctx, node))

    def _collect_kind_sites(self, ctx: LintContext) -> None:
        if not self.surface.kinds:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                for arg in node.args:
                    self._note_kind(ctx, arg, "send")
                for keyword in node.keywords:
                    self._note_kind(ctx, keyword.value, "send")
            elif isinstance(node, ast.Compare):
                for side in [node.left, *node.comparators]:
                    self._note_kind(ctx, side, "dispatch")
                    if isinstance(side, (ast.Tuple, ast.List, ast.Set)):
                        for element in side.elts:
                            self._note_kind(ctx, element, "dispatch")
            elif isinstance(node, ast.Dict):
                if not all(_callable_ish(v) for v in node.values):
                    continue
                for key in node.keys:
                    if key is not None:
                        self._note_kind(ctx, key, "dispatch")
            elif isinstance(node, ast.match_case):
                for sub in ast.walk(node.pattern):
                    if isinstance(sub, ast.MatchValue):
                        self._note_kind(ctx, sub.value, "dispatch")

    # -- Totem wire-class sites ---------------------------------------

    def _wire_qname(self, node: ast.AST,
                    aliases: Dict[str, str]) -> Optional[str]:
        origin = _resolve(node, aliases)
        if origin is None:
            return None
        if origin in self.surface.wire_classes:
            return origin
        return self._wire_by_name.get(origin)

    def _collect_wire_sites(self, ctx: LintContext,
                            aliases: Dict[str, str]) -> None:
        if not self.surface.wire_classes:
            return
        defining = ctx.module in self.config.totem_message_modules
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance"
                        and len(node.args) == 2):
                    probe = node.args[1]
                    candidates = (probe.elts
                                  if isinstance(probe, ast.Tuple)
                                  else [probe])
                    for candidate in candidates:
                        qname = self._wire_qname(candidate, aliases)
                        if qname is not None:
                            self.surface.wire_classes[qname].dispatches \
                                .append(_ref(ctx, candidate))
                    continue
                qname = self._wire_qname(node.func, aliases)
                if qname is not None and not defining:
                    self.surface.wire_classes[qname].constructs.append(
                        _ref(ctx, node))
            elif isinstance(node, ast.Dict):
                if not all(_callable_ish(v) for v in node.values):
                    continue
                for key in node.keys:
                    if key is None:
                        continue
                    qname = self._wire_qname(key, aliases)
                    if qname is not None:
                        self.surface.wire_classes[qname].dispatches.append(
                            _ref(ctx, key))

    # -- observability inventory (dump only) --------------------------

    def _collect_obs_names(self, ctx: LintContext) -> None:
        if not ctx.module.startswith("repro"):
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr == "record" and node.args:
                first = node.args[0]
                if (isinstance(first, ast.Constant)
                        and isinstance(first.value, str)
                        and "." in first.value):
                    self.surface.flight_kinds.append(first.value)
            elif attr in ("start", "instant") and len(node.args) >= 2:
                second = node.args[1]
                if (isinstance(second, ast.Constant)
                        and isinstance(second.value, str)
                        and "." in second.value):
                    self.surface.span_names.append(second.value)


def build_protocol_surface(project: ProjectContext) -> ProtocolSurface:
    """The run's shared protocol surface (built once, memoised)."""
    return project.cached(
        "protocol", lambda: _SurfaceBuilder(project).build())


def render_protocol_json(project: ProjectContext) -> Dict[str, object]:
    """The ``--protocol-dump`` payload (schema in docs/STATIC_ANALYSIS.md)."""
    surface = build_protocol_surface(project)

    def refs(items: List[Ref]) -> List[Dict[str, object]]:
        return [{"path": r.path, "line": r.line} for r in items]

    return {
        "schema": 1,
        "kinds": {
            cls: {
                member: {"sends": refs(usage.sends),
                         "dispatches": refs(usage.dispatches)}
                for member, usage in sorted(table.items())}
            for cls, table in sorted(surface.kinds.items())},
        "wire_classes": {
            qname: {"constructs": refs(usage.constructs),
                    "dispatches": refs(usage.dispatches)}
            for qname, usage in sorted(surface.wire_classes.items())},
        "codecs": {
            suffix: {"encoder": pair.encoder_qname,
                     "decoder": pair.decoder_qname}
            for suffix, pair in sorted(surface.codecs.items())},
        "giop_msg_types": dict(sorted(surface.giop_msg_types.items())),
        "flight_kinds": surface.flight_kinds,
        "span_names": surface.span_names,
    }


# ----------------------------------------------------------------------
# FLOW001 / FLOW002 / FLOW003
# ----------------------------------------------------------------------


def _violation(code: str, message: str, ref: Ref) -> Violation:
    return Violation(code=code, message=message, path=ref.path,
                     line=ref.line, col=ref.col, snippet=ref.snippet)


class SentNeverHandledRule(ProjectRule):
    """FLOW001: a message kind the system can send but never acts on."""

    code = "FLOW001"
    name = "sent-never-handled"
    description = "message kind sent/encoded but never handled/dispatched"

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        surface = build_protocol_surface(project)
        for cls, table in sorted(surface.kinds.items()):
            for member, usage in sorted(table.items()):
                if usage.sends and not usage.dispatches:
                    anchor = min(usage.sends,
                                 key=lambda r: (r.path, r.line))
                    yield _violation(
                        self.code,
                        f"`{cls}.{member}` is sent here but no dispatch "
                        "site handles it; every sendable kind needs a "
                        "live handler", anchor)
        for qname, usage in sorted(surface.wire_classes.items()):
            if usage.constructs and not usage.dispatches:
                anchor = min(usage.constructs,
                             key=lambda r: (r.path, r.line))
                yield _violation(
                    self.code,
                    f"wire message `{qname}` is constructed here but "
                    "never dispatched (no isinstance/table entry)", anchor)


class DeadHandlerRule(ProjectRule):
    """FLOW002: dead protocol surface — handlers (or kinds, or codecs)
    nothing can reach."""

    code = "FLOW002"
    name = "dead-handler"
    description = ("handler/codec/kind that no send site can ever reach")

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        surface = build_protocol_surface(project)
        graph = build_callgraph(project)
        for cls, table in sorted(surface.kinds.items()):
            for member, usage in sorted(table.items()):
                if usage.sends:
                    continue
                if usage.dispatches:
                    anchor = min(usage.dispatches,
                                 key=lambda r: (r.path, r.line))
                    yield _violation(
                        self.code,
                        f"dead handler: `{cls}.{member}` is dispatched "
                        "here but nothing ever sends it", anchor)
                elif usage.definition is not None:
                    yield _violation(
                        self.code,
                        f"dead message kind: `{cls}.{member}` is neither "
                        "sent nor handled anywhere in the linted set",
                        usage.definition)
        for qname, usage in sorted(surface.wire_classes.items()):
            if usage.dispatches and not usage.constructs:
                anchor = min(usage.dispatches,
                             key=lambda r: (r.path, r.line))
                yield _violation(
                    self.code,
                    f"dead handler: wire message `{qname}` is dispatched "
                    "here but never constructed", anchor)
        for _suffix, pair in sorted(surface.codecs.items()):
            for qname, ref in ((pair.encoder_qname, pair.encoder),
                               (pair.decoder_qname, pair.decoder)):
                if qname is None or ref is None:
                    continue
                if not graph.callers(qname):
                    yield _violation(
                        self.code,
                        f"dead codec: no code in the linted set calls "
                        f"`{qname}`", ref)


class CodecAsymmetryRule(ProjectRule):
    """FLOW003: an encoder with no decoder, or vice versa."""

    code = "FLOW003"
    name = "codec-asymmetry"
    description = "encode_X/decode_X codec pair is asymmetric"

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        surface = build_protocol_surface(project)
        for suffix, pair in sorted(surface.codecs.items()):
            if pair.encoder is not None and pair.decoder is None:
                yield _violation(
                    self.code,
                    f"`encode_{suffix}` has no matching "
                    f"`decode_{suffix}`; peers cannot parse what this "
                    "side can emit", pair.encoder)
            elif pair.decoder is not None and pair.encoder is None:
                yield _violation(
                    self.code,
                    f"`decode_{suffix}` has no matching "
                    f"`encode_{suffix}`; this side parses a shape it "
                    "can never produce", pair.decoder)
