"""The reprolint rule pack: this repo's invariants, as AST checks.

Each rule is deliberately *repo-aware* rather than generic: the scopes
(`DETERMINISTIC_PREFIXES`, `SIM_ONLY_PREFIXES`, `AUDIT_MODULES`) and
the sinks they protect come from how this reproduction is actually
built — everything under the deterministic prefixes runs inside
scheduler events and must be a pure function of the seed.  See
docs/STATIC_ANALYSIS.md for the catalogue, rationale, and the
suppression syntax; tests/fixtures/lint/ holds a good/bad snippet pair
for every rule.

The checks are intentionally syntactic (no type inference): they
over-approximate in places and rely on inline, justified suppressions
for the rare legitimate exception.  That trade is the point — a
determinism hazard that needs a human-written justification is visible
in review; one that silently rides in a `set` iteration is not.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .lint import (LintContext, LintRule, ProjectContext, ProjectRule,
                   Violation)

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for nested Attribute/Name chains; None otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> imported dotted origin, for both import forms."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
    return aliases


def resolve(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Fully-qualified dotted origin of an expression, via the imports."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically set-valued: displays, comprehensions, set()/
    frozenset() calls, and set-algebra over dict views."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return any(_is_view_call(side) or _is_set_expr(side)
                   for side in (node.left, node.right))
    return False


def _is_view_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "items", "values")
            and not node.args)


# ----------------------------------------------------------------------
# DET001 — wall-clock reads
# ----------------------------------------------------------------------

_WALL_TIME_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "clock_gettime",
    "clock_gettime_ns",
})
_WALL_DATETIME_FNS = frozenset({
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class WallClockRule(LintRule):
    """DET001: host-time reads outside the sanctioned boundary.

    Simulated code must read ``scheduler.now`` (or a metrics clock);
    the only legitimate host-time door is
    :mod:`repro.obs.hostclock`, which carries its own justified
    suppression.  Flags both calls *and* bare references (a default
    argument like ``clock=time.perf_counter`` smuggles the read just
    as effectively).
    """

    code = "DET001"
    name = "wall-clock-read"
    description = ("wall clock read on a simulated path; route through "
                   "repro.obs.hostclock")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_TIME_FNS:
                        yield ctx.violation(
                            self.code,
                            f"imports wall clock `time.{alias.name}`; "
                            "use repro.obs.hostclock.wall_clock", node)
            elif isinstance(node, ast.Attribute):
                origin = resolve(node, aliases)
                if origin is None:
                    continue
                if (origin.startswith("time.")
                        and origin.split(".", 1)[1] in _WALL_TIME_FNS):
                    yield ctx.violation(
                        self.code,
                        f"reads wall clock `{origin}`; simulated code must "
                        "use the scheduler clock (repro.obs.hostclock is "
                        "the only host-time boundary)", node)
                elif origin in _WALL_DATETIME_FNS or (
                        origin.startswith("datetime.")
                        and origin.split(".")[-1] in ("now", "utcnow", "today")):
                    yield ctx.violation(
                        self.code,
                        f"reads calendar clock `{origin}`; timestamps on "
                        "simulated paths must derive from scheduler.now",
                        node)


# ----------------------------------------------------------------------
# DET002 — ambient randomness
# ----------------------------------------------------------------------

_RANDOM_OK = frozenset({"Random"})
_ENTROPY_ORIGINS = frozenset({
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
})


class AmbientRandomRule(LintRule):
    """DET002: module-level ``random`` (or other ambient entropy).

    The World owns the one seeded RNG (``world.rng``); drawing from the
    shared ``random`` module's implicit global state — or from real
    entropy (``os.urandom``, ``uuid.uuid4``, ``random.SystemRandom``)
    — silently breaks seed-reproducibility.  Constructing an explicit
    ``random.Random(seed)`` is the sanctioned pattern and is allowed.
    """

    code = "DET002"
    name = "ambient-random"
    description = ("ambient randomness instead of the World's seeded "
                   "random.Random")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in _RANDOM_OK:
                        yield ctx.violation(
                            self.code,
                            f"imports `random.{alias.name}` (module-global "
                            "RNG state); use the World's seeded "
                            "random.Random instance", node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    target = (f"{node.module}.{alias.name}"
                              if isinstance(node, ast.ImportFrom)
                              else alias.name)
                    if target == "secrets" or target.startswith("secrets."):
                        yield ctx.violation(
                            self.code,
                            "imports `secrets` (real entropy); seeded "
                            "scenarios cannot reproduce it", node)
            elif isinstance(node, ast.Attribute):
                origin = resolve(node, aliases)
                if origin is None:
                    continue
                if (origin.startswith("random.")
                        and origin.split(".", 1)[1] not in _RANDOM_OK):
                    yield ctx.violation(
                        self.code,
                        f"uses `{origin}` (module-global RNG state); draw "
                        "from the World's seeded random.Random instead",
                        node)
                elif origin in _ENTROPY_ORIGINS:
                    yield ctx.violation(
                        self.code,
                        f"uses `{origin}` (real entropy); seeded scenarios "
                        "cannot reproduce it", node)


# ----------------------------------------------------------------------
# DET003 — unsorted set iteration
# ----------------------------------------------------------------------


class UnsortedSetIterationRule(LintRule):
    """DET003: iteration order of a ``set`` reaching deterministic code.

    CPython set iteration order depends on insertion history *and*
    element hashes (which, for str, vary per process unless hash
    randomisation is pinned).  Inside the deterministic packages any
    set iteration can leak that order into event scheduling or wire
    bytes, so all of them must go through ``sorted(...)``.  The check
    is scope-based (no flow analysis): it flags ``for``/comprehension
    iteration, ``list()``/``tuple()`` materialisation, and
    ``.join(...)`` over syntactic sets, set-typed locals, and
    set-algebra over dict views.
    """

    code = "DET003"
    name = "unsorted-set-iteration"
    description = ("unordered set iteration in a deterministic module; "
                   "wrap in sorted(...)")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.module_in(ctx.config.deterministic_prefixes):
            return
        # Name tracking is per lexical scope: a `live = set(...)` in one
        # method must not taint an unrelated list called `live` in
        # another.  Each function (and the module body) is scanned with
        # its own name table, without descending into nested scopes.
        for scope in self._scopes(ctx.tree):
            nodes = list(self._scope_walk(scope))
            set_locals: Set[str] = set()
            for node in nodes:
                if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            set_locals.add(target.id)
                elif (isinstance(node, ast.AnnAssign)
                        and node.value is not None
                        and _is_set_expr(node.value)
                        and isinstance(node.target, ast.Name)):
                    set_locals.add(node.target.id)

            def is_set_like(expr: ast.AST) -> bool:
                if _is_set_expr(expr):
                    return True
                return isinstance(expr, ast.Name) and expr.id in set_locals

            for node in nodes:
                iters: List[ast.AST] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                elif isinstance(node, ast.Call):
                    if (isinstance(node.func, ast.Name)
                            and node.func.id in ("list", "tuple", "enumerate")
                            and node.args):
                        iters.append(node.args[0])
                    elif (isinstance(node.func, ast.Attribute)
                            and node.func.attr == "join" and node.args):
                        iters.append(node.args[0])
                for candidate in iters:
                    if is_set_like(candidate):
                        yield ctx.violation(
                            self.code,
                            "iterates a set in undefined order inside a "
                            "deterministic module; wrap in sorted(...)",
                            candidate)

    @staticmethod
    def _scopes(tree: ast.AST) -> Iterator[ast.AST]:
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                yield node

    @staticmethod
    def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
        """All nodes of one lexical scope, excluding nested functions."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# DET004 — object identity in protocol state
# ----------------------------------------------------------------------


class ObjectIdentityRule(LintRule):
    """DET004: ``id()`` / ``hash()`` values inside deterministic code.

    ``id()`` is an address and ``hash()`` of str/bytes is salted per
    process: neither survives a re-run, so neither may reach protocol
    output, tie-breaks, or anything a golden records.  The rule flags
    every call in the deterministic packages; the rare legitimate use
    (e.g. *same-process* servant-identity bookkeeping that is never
    serialized) carries an inline justified suppression.
    """

    code = "DET004"
    name = "object-identity"
    description = ("id()/hash() in a deterministic module leaks "
                   "per-process values")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.module_in(ctx.config.deterministic_prefixes):
            return
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("id", "hash")):
                yield ctx.violation(
                    self.code,
                    f"`{node.func.id}()` is per-process (addresses / salted "
                    "hashes); deterministic state must use stable "
                    "identifiers", node)


# ----------------------------------------------------------------------
# SIM001 — host blocking / concurrency in sim-driven modules
# ----------------------------------------------------------------------

_BLOCKING_MODULES = frozenset({
    "threading", "_thread", "socket", "socketserver", "selectors",
    "select", "subprocess", "multiprocessing", "asyncio", "concurrent",
    "queue", "ssl", "signal",
})
_BLOCKING_CALLS = frozenset({
    "time.sleep", "os.system", "os.popen", "os.fork", "os.wait",
})


class SimDisciplineRule(LintRule):
    """SIM001: real I/O, threads, or sleeps inside sim-driven modules.

    Everything under the sim-only prefixes runs inside scheduler
    events: a real ``sleep`` stalls the whole universe, a thread races
    it, and a socket bypasses the simulated network (and its fault
    injection) entirely.  Host-side concerns belong in tools/, bench/,
    or behind an injected boundary.
    """

    code = "SIM001"
    name = "sim-discipline"
    description = ("blocking I/O / threads / sleep inside a sim-driven "
                   "module")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.module_in(ctx.config.sim_only_prefixes):
            return
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    base = (node.module if isinstance(node, ast.ImportFrom)
                            and node.module else alias.name)
                    root = (base or "").split(".")[0]
                    if root in _BLOCKING_MODULES:
                        yield ctx.violation(
                            self.code,
                            f"imports `{root}` in a sim-driven module; all "
                            "I/O and concurrency must run on the simulated "
                            "scheduler", node)
            elif isinstance(node, ast.Call):
                origin = resolve(node.func, aliases)
                if origin in _BLOCKING_CALLS:
                    yield ctx.violation(
                        self.code,
                        f"calls `{origin}` in a sim-driven module; use "
                        "scheduler.call_after for delays", node)
                elif (isinstance(node.func, ast.Name)
                        and node.func.id in ("open", "input")):
                    yield ctx.violation(
                        self.code,
                        f"calls `{node.func.id}()` in a sim-driven module; "
                        "host I/O belongs in tools/ or an injected "
                        "boundary", node)


# ----------------------------------------------------------------------
# SIM002 — the simulator's crash record used as a failure detector
# ----------------------------------------------------------------------

_CRASH_HOOKS = frozenset({"on_crash", "on_host_crash", "on_host_recovery"})


class CrashHookRule(LintRule):
    """SIM002: a protocol package subscribing to the simulator's record
    of a crash or a recovery.

    No processor sees another one crash: it learns of a failure from a
    membership change delivered in the total order, and every recovery
    duty of the gateway and the Eternal layer runs there.  A hook on
    ``Host.on_crash`` or ``Network.on_host_crash`` / ``on_host_recovery``
    acts on knowledge the protocol cannot have.  Tests, fault injection
    and tools may use them.
    """

    code = "SIM002"
    name = "crash-hook"
    description = ("simulator crash/recovery hook in a protocol package")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.module_in(ctx.config.membership_only_prefixes):
            return
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _CRASH_HOOKS):
                yield ctx.violation(
                    self.code,
                    f"calls `{node.func.attr}`: a protocol package learns "
                    "of a crash or recovery from a membership change, "
                    "not from the simulator", node)


# ----------------------------------------------------------------------
# OBS001 — uncatalogued metric / span names
# ----------------------------------------------------------------------

_METRIC_FACTORIES = frozenset({"counter_fn", "gauge", "histogram"})
_SPAN_EMITTERS = frozenset({"start", "instant"})
# The flight recorder (FlightRecorder.record): the first argument is
# the event kind.  Only dotted string literals are checked — other
# same-named methods pass undotted strings or objects and fall through.
_FLIGHT_EMITTERS = frozenset({"record"})


class CatalogueRule(LintRule):
    """OBS001: metric/span names emitted in code but absent from
    docs/OBSERVABILITY.md.

    The catalogue is the contract dashboards and tests are written
    against; an undocumented series is invisible operational surface.
    Checked emitters: ``MetricsRegistry.counter_fn/gauge/histogram``
    first arguments, ``AuditScope.register(gauge=...)``
    names, ``TraceCollector.start/instant`` span names,
    ``FlightRecorder.record`` event kinds (only when the literal is
    dotted, which filters out the same-named race-recorder method),
    and every counter name in a ``stats`` table passed to
    ``MetricsRegistry.register_stats`` (a dict literal, inline or
    assigned to a module-level name without annotation).  Dynamic (non-literal) names are
    out of scope — they must be catalogued as a backticked ``family.*``
    wildcard instead.
    """

    code = "OBS001"
    name = "uncatalogued-series"
    description = ("metric/span name missing from the "
                   "docs/OBSERVABILITY.md catalogue")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if ctx.config.catalogue_names is None:
            return
        if not ctx.module.startswith("repro"):
            return
        tables: Dict[str, ast.AST] = {
            target.id: stmt.value for stmt in ctx.tree.body
            if isinstance(stmt, ast.Assign)
            for target in stmt.targets if isinstance(target, ast.Name)}
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            names: List[Tuple[str, ast.AST]] = []
            if attr == "register_stats" and len(node.args) >= 2:
                table: ast.AST = node.args[1]
                if isinstance(table, ast.Name):
                    table = tables.get(table.id, table)
                if isinstance(table, ast.Dict):
                    names.extend(
                        (value.value, value) for value in table.values
                        if isinstance(value, ast.Constant)
                        and isinstance(value.value, str))
            if attr in _METRIC_FACTORIES and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                        first.value, str):
                    names.append((first.value, first))
            elif attr in _SPAN_EMITTERS and len(node.args) >= 2:
                second = node.args[1]
                if (isinstance(second, ast.Constant)
                        and isinstance(second.value, str)
                        and "." in second.value):
                    names.append((second.value, second))
            elif attr in _FLIGHT_EMITTERS and node.args:
                first = node.args[0]
                if (isinstance(first, ast.Constant)
                        and isinstance(first.value, str)
                        and "." in first.value):
                    names.append((first.value, first))
            if attr in ("register",):
                for keyword in node.keywords:
                    if (keyword.arg == "gauge"
                            and isinstance(keyword.value, ast.Constant)
                            and isinstance(keyword.value.value, str)):
                        names.append((keyword.value.value, keyword.value))
            for name, anchor in names:
                if not ctx.config.catalogued(name):
                    yield ctx.violation(
                        self.code,
                        f"series `{name}` is not in the observability "
                        "catalogue "
                        f"({ctx.config.catalogue_source or 'docs/OBSERVABILITY.md'})",
                        anchor)


# ----------------------------------------------------------------------
# AUD001 — unregistered stateful collections
# ----------------------------------------------------------------------

_CONTAINER_CALLS = frozenset({
    "dict", "list", "set", "frozenset", "deque", "OrderedDict",
    "defaultdict", "Counter",
})


def _is_container_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in _CONTAINER_CALLS:
            return True
    return False


class AuditRegistrationRule(LintRule):
    """AUD001: a stateful collection that the resource audit can't see.

    PR 3's leak audit only works if *every* stateful collection in the
    gateway/RM layer is registered with the world's ``AuditScope``.
    For each class in the audited modules that registers at least one
    collection, every ``self.X = {}/[]/set()/deque()...`` must be
    referenced from some ``register(...)``/``register_audit(...)``
    call in that class — a new table silently added next to the
    registered ones is exactly the regression PR 3 existed to stop.
    """

    code = "AUD001"
    name = "unaudited-collection"
    description = ("stateful collection not registered with "
                   "repro.obs.audit")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if ctx.module not in ctx.config.audit_modules:
            return
        for klass in [n for n in ctx.tree.body
                      if isinstance(n, ast.ClassDef)]:
            registered_refs: Set[str] = set()
            register_calls = 0
            for node in ast.walk(klass):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("register", "register_audit")):
                    register_calls += 1
                    for sub in ast.walk(node):
                        if (isinstance(sub, ast.Attribute)
                                and isinstance(sub.value, ast.Name)
                                and sub.value.id == "self"):
                            registered_refs.add(sub.attr)
            if register_calls == 0:
                continue
            seen: Set[str] = set()
            for node in ast.walk(klass):
                target: Optional[ast.Attribute] = None
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    maybe = node.targets[0]
                    if isinstance(maybe, ast.Attribute):
                        target, value = maybe, node.value
                elif (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Attribute)):
                    target, value = node.target, node.value
                if (target is None or value is None
                        or not isinstance(target.value, ast.Name)
                        or target.value.id != "self"):
                    continue
                attr = target.attr
                if attr in seen or not _is_container_expr(value):
                    continue
                seen.add(attr)
                if attr not in registered_refs:
                    yield ctx.violation(
                        self.code,
                        f"stateful collection `self.{attr}` in "
                        f"`{klass.name}` is never referenced by an audit "
                        "register(...) call; declare its quiescence floor "
                        "(repro.obs.audit) or justify a suppression",
                        target)


# ----------------------------------------------------------------------
# EXC001 — swallowed exceptions on scheduler-callback paths
# ----------------------------------------------------------------------

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    probe = handler.type
    if probe is None:
        return True
    candidates = probe.elts if isinstance(probe, ast.Tuple) else [probe]
    return any(isinstance(c, ast.Name) and c.id in _BROAD_EXCEPTIONS
               for c in candidates)


def _handler_reacts(body: List[ast.stmt]) -> bool:
    """Does the handler do *anything* with the failure — re-raise, call
    something (a metric, a logger, a fail-the-op hook), return a value,
    or record state?  Pure swallows (pass / bare return / continue) and
    docstring-only bodies do none of these."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Raise, ast.Call, ast.AugAssign,
                                 ast.Assign)):
                return True
            if isinstance(node, ast.AnnAssign) and node.value is not None:
                return True
            if isinstance(node, ast.Return) and node.value is not None:
                if not (isinstance(node.value, ast.Constant)
                        and node.value.value is None):
                    return True
    return False


class SwallowedExceptionRule(LintRule):
    """EXC001: a broad ``except`` on a sim-driven path that swallows.

    Everything under the sim-only prefixes runs as scheduler callbacks:
    an exception silently dropped there doesn't crash a request, it
    silently corrupts a replica's state relative to its peers (the
    exact divergence the paper's deterministic-execution requirement
    exists to prevent) — and no log, metric, or failed op ever points
    at it.  A broad handler must re-raise, record a metric/state, call
    a failure hook, or return a substitute value; ``pass`` needs a
    justified suppression explaining why ignoring is correct.
    """

    code = "EXC001"
    name = "swallowed-exception"
    description = ("broad except on a scheduler-callback path swallows "
                   "the failure")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.module_in(ctx.config.sim_only_prefixes):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad_handler(node):
                continue
            if _handler_reacts(node.body):
                continue
            yield ctx.violation(
                self.code,
                "broad except swallows the failure on a sim-driven "
                "path; re-raise, record a metric/state change, or fail "
                "the pending op", node)


# ----------------------------------------------------------------------
# SM001 — state-machine dispatch exhaustiveness
# ----------------------------------------------------------------------

def _uppercase_assigns(node: ast.ClassDef) -> List[Tuple[str, ast.Assign]]:
    found: List[Tuple[str, ast.Assign]] = []
    for item in node.body:
        if (isinstance(item, ast.Assign) and len(item.targets) == 1
                and isinstance(item.targets[0], ast.Name)
                and item.targets[0].id.isupper()):
            found.append((item.targets[0].id, item))
    return found


def _enum_state_members(node: ast.ClassDef) -> List[str]:
    is_enum = any(
        (isinstance(b, ast.Name) and b.id.endswith("Enum"))
        or (isinstance(b, ast.Attribute) and b.attr.endswith("Enum"))
        for b in node.bases)
    if not is_enum:
        return []
    return [name for name, _ in _uppercase_assigns(node)]


def _str_constant_state_members(node: ast.ClassDef) -> List[str]:
    """The repo's plain-class state convention: >=2 UPPERCASE attrs
    whose values are the lowercased attr name (``CLOSED = "closed"``).
    Matches CircuitBreaker / Totem membership states / execution
    outcomes, and automatically picks up the next state added."""
    members = [name for name, item in _uppercase_assigns(node)
               if isinstance(item.value, ast.Constant)
               and item.value.value == name.lower()]
    return members if len(members) >= 2 else []


def state_classes(project: ProjectContext) -> Dict[str, Tuple[str, ...]]:
    """Class name -> state members, discovered across the linted set."""
    def build() -> Dict[str, Tuple[str, ...]]:
        found: Dict[str, Set[str]] = {}
        for ctx in project.contexts:
            for node in ctx.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                members = (_enum_state_members(node)
                           or _str_constant_state_members(node))
                if len(members) >= 2:
                    found.setdefault(node.name, set()).update(members)
        return {name: tuple(sorted(m)) for name, m in found.items()}
    return project.cached("sm001.state_classes", build)


def _holder_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _member_ref(node: ast.AST, classes: Dict[str, Tuple[str, ...]]
                ) -> Optional[Tuple[str, str]]:
    """(class name, member) if ``node`` is ``StateClass.MEMBER``."""
    if not isinstance(node, ast.Attribute):
        return None
    holder = _holder_name(node.value)
    if holder is None or holder not in classes:
        return None
    if node.attr in classes[holder]:
        return holder, node.attr
    return None


def _member_tests(test: ast.AST, classes: Dict[str, Tuple[str, ...]]
                  ) -> Dict[Tuple[str, str], Set[str]]:
    """(class, subject) -> members positively tested in one branch
    condition.  Subject is the ast dump of the compared expression, so
    ``kind is MsgKind.A`` and ``kind is MsgKind.B`` in different
    branches group into one dispatch over ``kind``."""
    hits: Dict[Tuple[str, str], Set[str]] = {}
    for node in ast.walk(test if isinstance(test, ast.AST) else ast.Pass()):
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1
                and len(node.comparators) == 1):
            continue
        op = node.ops[0]
        left, right = node.left, node.comparators[0]
        if isinstance(op, (ast.Is, ast.Eq)):
            for member_side, subject_side in ((left, right), (right, left)):
                ref = _member_ref(member_side, classes)
                if ref is not None:
                    cls, member = ref
                    key = (cls, ast.dump(subject_side))
                    hits.setdefault(key, set()).add(member)
                    break
        elif isinstance(op, ast.In) and isinstance(
                right, (ast.Tuple, ast.List, ast.Set)):
            for element in right.elts:
                ref = _member_ref(element, classes)
                if ref is not None:
                    cls, member = ref
                    key = (cls, ast.dump(left))
                    hits.setdefault(key, set()).add(member)
    return hits


def _flatten_chain(head: ast.If) -> Tuple[List[ast.expr], bool, Set[int]]:
    """Flatten an if/elif chain; ``elif`` is an ``If`` as the sole
    ``orelse`` statement at the head's indentation (a nested ``else:
    if ...:`` sits deeper and is treated as an explicit default)."""
    tests: List[ast.expr] = [head.test]
    consumed: Set[int] = set()
    node = head
    while (len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If)
            and node.orelse[0].col_offset == head.col_offset):
        node = node.orelse[0]
        consumed.add(id(node))
        tests.append(node.test)
    return tests, bool(node.orelse), consumed


class StateMachineExhaustivenessRule(ProjectRule):
    """SM001: a dispatch over a state machine must cover every state.

    Applies to two dispatch shapes, wherever the subject expression is
    compared against members of a discovered state class (an enum, or
    the ``CLOSED = "closed"`` plain-class convention):

    * an ``if/elif`` chain with >= 2 branches over the same subject —
      must test every member or carry an explicit ``else``;
    * a dict-dispatch display with >= 2 state-member keys and handler
      (callable) values — must key every member.

    The point is the *next* state: adding a ``ReplicationStyle``, a
    breaker state, or a ``MsgKind`` makes every non-exhaustive
    dispatch fail lint instead of silently falling through.
    """

    code = "SM001"
    name = "state-dispatch-exhaustiveness"
    description = ("if/elif or dict dispatch over a state class misses "
                   "members and has no default")

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        classes = state_classes(project)
        if not classes:
            return
        for ctx in project.contexts:
            yield from self._check_file(ctx, classes)

    def _check_file(self, ctx: LintContext,
                    classes: Dict[str, Tuple[str, ...]]
                    ) -> Iterator[Violation]:
        consumed: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.If) and id(node) not in consumed:
                tests, has_else, eaten = _flatten_chain(node)
                consumed |= eaten
                if not has_else:
                    yield from self._check_chain(ctx, node, tests, classes)
            elif isinstance(node, ast.Dict):
                yield from self._check_table(ctx, node, classes)

    def _check_chain(self, ctx: LintContext, head: ast.If,
                     tests: List[ast.expr],
                     classes: Dict[str, Tuple[str, ...]]
                     ) -> Iterator[Violation]:
        covered: Dict[Tuple[str, str], Set[str]] = {}
        branches: Dict[Tuple[str, str], int] = {}
        for test in tests:
            for key, members in _member_tests(test, classes).items():
                covered.setdefault(key, set()).update(members)
                branches[key] = branches.get(key, 0) + 1
        for (cls, _subject), members in sorted(covered.items()):
            if branches[(cls, _subject)] < 2:
                continue
            missing = sorted(set(classes[cls]) - members)
            if missing:
                yield ctx.violation(
                    self.code,
                    f"if/elif dispatch over `{cls}` misses "
                    f"{', '.join(missing)} and has no else; cover every "
                    "state or add an explicit default", head)

    def _check_table(self, ctx: LintContext, table: ast.Dict,
                     classes: Dict[str, Tuple[str, ...]]
                     ) -> Iterator[Violation]:
        if not table.keys or not all(
                isinstance(v, (ast.Name, ast.Attribute, ast.Lambda))
                for v in table.values):
            return
        keyed: Dict[str, Set[str]] = {}
        for key in table.keys:
            if key is None:
                return  # **splat merge: coverage is not statically known
            ref = _member_ref(key, classes)
            if ref is None:
                return  # mixed / non-state keys: not a state dispatch
            keyed.setdefault(ref[0], set()).add(ref[1])
        for cls, members in sorted(keyed.items()):
            if len(members) < 2:
                continue
            missing = sorted(set(classes[cls]) - members)
            if missing:
                yield ctx.violation(
                    self.code,
                    f"dict dispatch over `{cls}` misses "
                    f"{', '.join(missing)}; a handler table must key "
                    "every state", table)
