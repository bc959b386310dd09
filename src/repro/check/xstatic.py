"""Whole-program static analysis over ``src/repro`` (``repro check --static``).

Where :mod:`repro.check.lint` checks one module at a time, this pass
parses the *entire* tree at once and reasons about the string-named
contracts that tie the dynamic subsystems together: trace-event
categories (``tracer.emit(...)``), FaultClock hook sites
(``fault_clock.check(...)`` / ``.tick(...)``), fault-injection cut
targets (``cut_at`` / ``cut_on_visit`` site filters) and report schema
ids.  Three latent bugs in as many PRs (the CP ack ABA, the
``finally``-cleared inflight journal, GC resurrecting trimmed data)
were each found only by expensive dynamic campaigns; the rules here
make the same contract classes checkable before a single simulation
event runs.

Registry extraction (part a)
    Every producer and consumer of a hook-site or trace-event string is
    collected into a :class:`Registry`.  Producers are ``emit`` calls on
    tracer-like receivers and ``check``/``tick`` calls on clock-like
    receivers; one level of wrapper indirection is resolved (a function
    that forwards a parameter into the category/site argument counts as
    an emitter, and literal arguments at its call sites become
    producers), and f-strings with a literal head (``f"nvmc.dma.{kind}"``)
    register as prefix producers.  Consumers are the sanitizer modules'
    category comparisons (including class-level tuple constants such as
    ``TimeSanitizer.MONOTONIC`` and ``startswith`` prefixes) and the
    injector registry's cut-site filters (prefix semantics, matching
    ``_Cut.matches_site``).

Cross-check rules
    ``REPRO011`` — a sanitizer expects a trace event no producer emits
        (typo'd category, or a rule that can never fire).
    ``REPRO012`` — a fault-injection cut targets a hook-site prefix no
        layer ever visits (the fault can never fire).

Crash-safety dataflow rules (scope: modules *crash-exposed* to a power
cut — those containing a hook-site call, plus every module importing
one, transitively; a cut raises ``PowerLossInterrupt`` through exactly
these call paths)
    ``REPRO006`` — a ``finally`` block unconditionally clears / pops /
        None-assigns journal- or map-like persistent state while no
        handler on the same ``try`` catches ``PowerLossInterrupt``: the
        exact PR 3/PR 5 bug class, where the §V-C drain reads the field
        *after* the ``finally`` already wiped the only record of the
        in-flight victim.  A rollback handler (or a broad handler) on
        the ``try`` discharges the obligation.
    ``REPRO007`` — persistent state is mutated between an on-media
        ``program*`` call issued *without* its OOB stamp and the
        later ``write_oob``/``stamp`` commit: a cut in the gap leaves
        media and metadata permanently disagreeing.  Passing the stamp
        inline (``program(..., oob=stamp)``) is the atomic idiom and is
        never flagged.

Determinism dataflow rules (scope: every package except ``check``)
    ``REPRO008`` — a ``for`` loop over an unordered collection (``set``
        literal / ``set()`` / ``frozenset()`` / a local or ``self.``
        attribute assigned one) whose body emits trace records, schedules
        engine work, yields engine events or visits hook sites: set
        iteration order is hash-seed dependent, so the run is no longer
        a pure function of its seed.  Wrap the iterable in ``sorted()``.
    ``REPRO009`` — ``id()`` used as an ordering key (``key=id``, a key
        lambda calling ``id``, or ``id(...)`` inside ``sorted`` / ``min``
        / ``max`` / ``heappush`` arguments or used as a subscript key):
        CPython ids are addresses and differ across runs.
    ``REPRO010`` — ``json.dump``/``json.dumps`` without
        ``sort_keys=True`` in any report writer: dict key order is
        insertion order, so two semantically identical reports can
        differ byte-wise and break the byte-identity contracts the
        bench/faults/soak/crash reports are diffed under.

Snapshot coverage rule (scope: *snapshot-registered* modules — those
defining a :class:`~repro.sim.snapshot.SnapshotMixin` subclass or a
class with both ``snapshot`` and ``restore`` methods)
    ``REPRO013`` — mutable state that lives *outside* the object graph a
        snapshot captures: a module-level mutable binding (dict/list/set
        literal, ``itertools.count`` token mill, ...), a module global
        rebound via ``global``, or a class-level attribute (mutable, or
        a counter mutated through ``Cls.attr``).  A fork restored from a
        snapshot silently aliases such state with the golden run, so a
        replayed tail is no longer the same simulation.  Referencing the
        name inside a ``snapshot`` / ``restore`` / ``__getstate__`` /
        ``__setstate__`` / ``__reduce__`` body discharges the
        obligation; deliberately process-wide meters belong in the
        committed baseline with a justification (see
        :mod:`repro.sim.snapshot`'s module docstring for the contract).

Suppression: every rule honours ``# noqa`` / ``# noqa: REPRO00x`` on
the flagged line, same contract as :mod:`repro.check.lint`.  Findings
carry a line-number-free :attr:`StaticFinding.fingerprint` so a
committed baseline survives unrelated edits.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.lint import _suppressed
from repro.report import (BOOL, COUNT, STR, ListOf, MapOf, Optional,
                          one_of, schema_id)

#: Baseline / JSON-output schema ids (pinned like the campaign reports).
REPORT_SCHEMA = schema_id("check.static", 1)
BASELINE_SCHEMA = schema_id("check.static-baseline", 1)

#: Attribute names whose call receivers identify the two producer kinds.
_EMIT_ATTRS = frozenset({"emit"})
_HOOK_ATTRS = frozenset({"check", "tick"})

#: Methods that clear / shrink persistent containers (REPRO006/007).
_CLEAR_METHODS = frozenset({"clear", "pop", "popitem", "discard", "remove"})
#: Methods that mutate persistent containers (REPRO007, superset).
_MUTATE_METHODS = _CLEAR_METHODS | frozenset({"update", "add", "append",
                                              "insert", "setdefault"})
#: OOB stamp / commit calls that close a split program (REPRO007).
_STAMP_METHODS = frozenset({"write_oob", "stamp", "stamp_oob", "commit_oob"})

#: Receiver / target names that look like persistent metadata state.
_PERSISTENT_RE = re.compile(
    r"journal|inflight|pending|tombstone|dirty|l2p|map|table|entries"
    r"|slot|page|meta|log", re.IGNORECASE)

#: Order-sensitive sinks a set-ordered loop must not feed (REPRO008).
_ORDER_SINKS = frozenset({"emit", "call_at", "call_at_many", "schedule",
                          "heappush", "tick", "check", "cut_at",
                          "cut_on_visit", "violation"})

#: Calls that preserve (sorted) or forward (list, ...) iteration order.
_ORDERING_CALLS = frozenset({"sorted"})
_TRANSPARENT_CALLS = frozenset({"list", "tuple", "enumerate", "reversed",
                                "iter"})

#: Constructors whose module/class-level result is shared mutable state
#: (REPRO013); ``count`` covers ``itertools.count`` token mills.
_MUTABLE_CTORS = frozenset({"dict", "list", "set", "defaultdict", "deque",
                            "Counter", "OrderedDict", "count"})

#: Function names whose bodies discharge REPRO013 coverage: state they
#: reference is part of some capture/restore path by construction.
_SNAPSHOT_FUNCS = frozenset({"snapshot", "restore", "__getstate__",
                             "__setstate__", "__reduce__"})

#: Module-level constant names that pin a report schema id.
_SCHEMA_NAME_RE = re.compile(r"SCHEMA")


@dataclass(frozen=True)
class SourceRef:
    """A producer/consumer occurrence at ``path:line`` (root-relative)."""

    path: str
    line: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass(frozen=True)
class StaticFinding:
    """One cross-module rule violation."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity used by ``--baseline`` files."""
        return f"{self.path}::{self.code}::{self.message}"

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class Registry:
    """The extracted hook-site / trace-event / schema registry.

    Exact names map to their :class:`SourceRef` lists; the ``*_prefixes``
    tables hold open-ended names (f-string emitters, ``startswith``
    consumers, cut-site filters — cut matching is prefix-based by
    construction, see ``faults.clock._Cut.matches_site``).
    """

    trace_producers: dict[str, list[SourceRef]] = field(default_factory=dict)
    trace_producer_prefixes: dict[str, list[SourceRef]] = field(
        default_factory=dict)
    trace_consumers: dict[str, list[SourceRef]] = field(default_factory=dict)
    trace_consumer_prefixes: dict[str, list[SourceRef]] = field(
        default_factory=dict)
    hook_producers: dict[str, list[SourceRef]] = field(default_factory=dict)
    hook_producer_prefixes: dict[str, list[SourceRef]] = field(
        default_factory=dict)
    hook_consumers: dict[str, list[SourceRef]] = field(default_factory=dict)
    schemas: dict[str, list[SourceRef]] = field(default_factory=dict)

    @staticmethod
    def _add(table: dict[str, list[SourceRef]], name: str,
             ref: SourceRef) -> None:
        table.setdefault(name, []).append(ref)

    # -- resolution -------------------------------------------------------------

    def trace_event_resolves(self, name: str) -> bool:
        """Does some producer emit (exactly or by prefix) ``name``?"""
        if name in self.trace_producers:
            return True
        return any(name.startswith(prefix)
                   for prefix in self.trace_producer_prefixes)

    def trace_prefix_resolves(self, prefix: str) -> bool:
        """Does some produced category fall under ``prefix``?"""
        if any(name.startswith(prefix) for name in self.trace_producers):
            return True
        return any(produced.startswith(prefix) or prefix.startswith(produced)
                   for produced in self.trace_producer_prefixes)

    def hook_site_resolves(self, site: str) -> bool:
        """Does some layer visit a hook site matching cut filter ``site``?

        Cut filters match by prefix (``site="nvmc.dma"`` matches every
        ``nvmc.dma.*`` visit), so a filter resolves when any produced
        site starts with it — or, for f-string producers, when the two
        prefixes are compatible in either direction.
        """
        if any(name.startswith(site) for name in self.hook_producers):
            return True
        return any(produced.startswith(site) or site.startswith(produced)
                   for produced in self.hook_producer_prefixes)

    def to_dict(self) -> dict:
        """JSON-ready summary (sorted, deterministic)."""
        def table(t: dict[str, list[SourceRef]]) -> dict[str, list[str]]:
            return {name: sorted(str(r) for r in refs)
                    for name, refs in sorted(t.items())}
        return {
            "trace_producers": table(self.trace_producers),
            "trace_producer_prefixes": table(self.trace_producer_prefixes),
            "trace_consumers": table(self.trace_consumers),
            "trace_consumer_prefixes": table(self.trace_consumer_prefixes),
            "hook_producers": table(self.hook_producers),
            "hook_producer_prefixes": table(self.hook_producer_prefixes),
            "hook_consumers": table(self.hook_consumers),
            "schemas": table(self.schemas),
        }


@dataclass
class StaticReport:
    """The pass output: the registry plus every finding."""

    registry: Registry
    findings: list[StaticFinding]

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "findings": [
                {"path": f.path, "line": f.line, "col": f.col,
                 "code": f.code, "message": f.message,
                 "fingerprint": f.fingerprint}
                for f in self.findings],
            "registry": self.registry.to_dict(),
        }


#: The ``--format json`` payload: :meth:`StaticReport.to_dict`, which
#: the CLI augments with a ``summary`` block and per-finding
#: ``baselined`` flags (both optional, so either form validates).
SHAPE = {
    "schema": one_of(REPORT_SCHEMA),
    "findings": ListOf({
        "path": STR, "line": COUNT, "col": COUNT, "code": STR,
        "message": STR, "fingerprint": STR, "baselined": Optional(BOOL)}),
    "registry": dict.fromkeys(
        ("trace_producers", "trace_producer_prefixes", "trace_consumers",
         "trace_consumer_prefixes", "hook_producers",
         "hook_producer_prefixes", "hook_consumers", "schemas"),
        MapOf(ListOf(STR))),
    "summary": Optional(dict.fromkeys(("total", "baselined", "new"),
                                      COUNT)),
}


# -- small AST helpers ------------------------------------------------------------


def _schema_constant(node: ast.expr) -> str | None:
    """The pinned schema id a ``*SCHEMA*`` assignment resolves to.

    Either a plain string literal or the shared-constructor idiom
    ``schema_id("faults", 1)`` from :mod:`repro.report` (one level of
    wrapper resolution, like the emit/check forwarders).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if (isinstance(node, ast.Call)
            and _call_name(node.func) == "schema_id"
            and len(node.args) == 2 and not node.keywords
            and all(isinstance(a, ast.Constant) for a in node.args)):
        kind, version = (a.value for a in node.args)  # type: ignore[attr-defined]
        if isinstance(kind, str) and isinstance(version, int):
            return f"repro.{kind}/{version}"
    return None


def _call_name(func: ast.expr) -> str | None:
    """Bare name of a called function (``Name`` or ``Attribute``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _receiver_text(func: ast.expr) -> str:
    """Source text of an attribute call's receiver ('' for plain names)."""
    if isinstance(func, ast.Attribute):
        try:
            return ast.unparse(func.value)
        except Exception:  # pragma: no cover - unparse is total on exprs
            return ""
    return ""


def _literal_or_prefix(node: ast.expr) -> tuple[str | None, str | None]:
    """``(exact, prefix)`` of a string argument; at most one is set.

    A plain string constant is exact; an f-string whose first piece is a
    literal head yields that head as an open prefix.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, None
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return None, head.value
    return None, None


def _string_elements(node: ast.expr) -> list[str] | None:
    """The string elements of a tuple/list/set/frozenset literal."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("frozenset", "tuple", "set")
            and len(node.args) == 1):
        node = node.args[0]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        values = []
        for element in node.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                return None
            values.append(element.value)
        return values
    return None


def _is_category_expr(node: ast.expr) -> bool:
    """Is this expression the trace category being dispatched on?"""
    if isinstance(node, ast.Attribute) and node.attr == "category":
        return True
    return isinstance(node, ast.Name) and node.id == "category"


def _persistent_name(text: str) -> bool:
    return bool(_PERSISTENT_RE.search(text))


def _catches_power_loss(handler: ast.ExceptHandler) -> bool:
    """Does this except clause catch ``PowerLossInterrupt``?

    Broad handlers (bare ``except``, ``Exception``, ``BaseException``,
    ``ReproError``) count as catching: the author audited the failure
    path, and flagging them would punish deliberate rollback code.
    """
    if handler.type is None:
        return True
    names = []
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    for node in types:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return any(name in ("PowerLossInterrupt", "Exception", "BaseException",
                        "ReproError") for name in names)


def _module_name(root: Path, path: Path) -> str:
    """Dotted module name of ``path`` under analysis root ``root``.

    ``root`` is the package directory (``.../src/repro``); its own name
    anchors the dotted path so import statements resolve against it.
    """
    rel = path.relative_to(root).with_suffix("")
    parts = (root.name,) + rel.parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# -- per-module extraction ---------------------------------------------------------


@dataclass
class _WrapperDef:
    """A function forwarding a parameter into an emit/hook name slot."""

    kind: str        # "emit" | "hook"
    arg_index: int   # positional index at call sites (self excluded)


class _ModuleFacts:
    """Everything pass 1 learns about one module."""

    def __init__(self, path: str, module: str, tree: ast.Module,
                 source_lines: list[str]) -> None:
        self.path = path
        self.module = module
        self.tree = tree
        self.source_lines = source_lines
        self.imports: set[str] = set()
        self.has_hook_call = False
        self.wrapper_defs: dict[str, _WrapperDef] = {}
        #: (code, line, col, message) candidates gated on crash exposure.
        self.crash_candidates: list[tuple[str, int, int, str]] = []
        self.findings: list[StaticFinding] = []


class _Extractor(ast.NodeVisitor):
    """Pass 1: registry facts plus the single-module dataflow rules."""

    def __init__(self, facts: _ModuleFacts, registry: Registry,
                 is_sanitizer_module: bool, determinism_scope: bool) -> None:
        self.facts = facts
        self.registry = registry
        self.is_sanitizer_module = is_sanitizer_module
        self.determinism_scope = determinism_scope
        self._constants: dict[str, list[str]] = {}
        self._class_set_attrs: set[str] = set()
        self._local_sets: list[set[str]] = []
        self._func_params: list[list[str]] = []
        # REPRO013 state: snapshot-registration evidence, candidate
        # bindings, and the names discharged by capture/restore bodies.
        self._class_stack: list[str] = []
        self._snapshot_module = False
        self._snapshot_classes: set[str] = set()
        self._snapshot_class_attrs: dict[str, dict[str, ast.stmt]] = {}
        self._class_attr_mutations: dict[tuple[str, str], ast.AST] = {}
        self._snapshot_candidates: list[tuple[str, ast.AST, str]] = []
        self._snapshot_covered: set[str] = set()
        self._module_assigns: dict[str, ast.AST] = {}
        self._global_rebinds: dict[str, ast.AST] = {}

    # -- plumbing ---------------------------------------------------------------

    def _ref(self, node: ast.AST) -> SourceRef:
        return SourceRef(self.facts.path, getattr(node, "lineno", 0))

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.facts.findings.append(StaticFinding(
            self.facts.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0), code, message))

    # -- imports (crash-exposure graph) ------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.facts.imports.add(alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            self.facts.imports.add(node.module)
            for alias in node.names:
                self.facts.imports.add(f"{node.module}.{alias.name}")
        self.generic_visit(node)

    # -- module/class constants (sanitizer tuple dispatch, schemas) --------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            name = None
            if isinstance(target, ast.Name):
                name = target.id
                self._note_snapshot_binding(name, node)
            elif isinstance(target, ast.Attribute):
                name = target.attr
                self._note_class_attr_write(target, node)
            if name is None:
                continue
            elements = _string_elements(node.value)
            if elements is None:
                # Derived constants: ``_FOO_SET = frozenset(FOO)`` (and
                # the set/tuple/list equivalents) inherit the elements
                # of the constant they wrap — sanitizers hoist hot
                # membership tuples into sets this way.
                value = node.value
                if (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id in ("frozenset", "set",
                                              "tuple", "list")
                        and len(value.args) == 1 and not value.keywords):
                    elements = self._resolve_elements(value.args[0])
            if elements is not None:
                self._constants[name] = elements
            if _SCHEMA_NAME_RE.search(name):
                resolved = _schema_constant(node.value)
                if resolved is not None:
                    Registry._add(self.registry.schemas, resolved,
                                  self._ref(node))
            self._note_set_binding(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            self._note_snapshot_binding(node.target.id, node)
        if node.value is not None:
            self._note_set_binding(node.target, node.value)
        elif self._annotation_is_set(node.annotation):
            self._note_set_target(node.target)
        self.generic_visit(node)

    # -- snapshot coverage bookkeeping (REPRO013) --------------------------------

    @staticmethod
    def _value_is_mutable(value: ast.expr | None) -> bool:
        """Does this binding alias shared mutable state at runtime?"""
        if value is None:
            return False
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)):
            return True
        return (isinstance(value, ast.Call)
                and _call_name(value.func) in _MUTABLE_CTORS)

    def _note_snapshot_binding(self, name: str,
                               node: ast.Assign | ast.AnnAssign) -> None:
        """Record module-level bindings as REPRO013 candidates."""
        if self._class_stack or self._func_params:
            return
        self._module_assigns.setdefault(name, node)
        if self._value_is_mutable(node.value):
            self._snapshot_candidates.append((
                name, node,
                f"module-level mutable state '{name}' in a "
                "snapshot-registered module is outside every snapshot: "
                "restored forks alias it with the golden run (capture it "
                "in snapshot/restore, or baseline it as deliberately "
                "process-wide)"))

    def _note_class_attr_write(self, target: ast.Attribute,
                               node: ast.AST) -> None:
        """``Cls.attr = ...`` inside a function mutates class state."""
        if (self._func_params and isinstance(target.value, ast.Name)
                and target.value.id in self._snapshot_classes):
            self._class_attr_mutations.setdefault(
                (target.value.id, target.attr), node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Attribute):
            self._note_class_attr_write(target, node)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self._global_rebinds.setdefault(name, node)
        self.generic_visit(node)

    # -- set bindings (REPRO008) -------------------------------------------------

    @staticmethod
    def _annotation_is_set(annotation: ast.expr) -> bool:
        if isinstance(annotation, ast.Name):
            return annotation.id in ("set", "frozenset")
        if isinstance(annotation, ast.Subscript):
            base = annotation.value
            return (isinstance(base, ast.Name)
                    and base.id in ("set", "frozenset"))
        return False

    @staticmethod
    def _value_is_set(value: ast.expr) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("set", "frozenset"))

    def _note_set_binding(self, target: ast.expr, value: ast.expr) -> None:
        if self._value_is_set(value):
            self._note_set_target(target)

    def _note_set_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name) and self._local_sets:
            self._local_sets[-1].add(target.id)
        elif (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            self._class_set_attrs.add(target.attr)

    def _iterable_is_unordered(self, node: ast.expr) -> bool:
        """Conservatively: does this expression iterate in hash order?"""
        while (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)):
            if node.func.id in _ORDERING_CALLS:
                return False
            if node.func.id in _TRANSPARENT_CALLS and node.args:
                node = node.args[0]
                continue
            break
        if self._value_is_set(node):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._local_sets)
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr in self._class_set_attrs
        return False

    # -- classes / functions -----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        saved = self._class_set_attrs
        self._class_set_attrs = set()
        if not self._class_stack and not self._func_params:
            self._note_snapshot_class(node)
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()
        self._class_set_attrs = saved

    def _note_snapshot_class(self, node: ast.ClassDef) -> None:
        """Snapshot-registration evidence plus class-attr candidates."""
        defined = {stmt.name for stmt in node.body
                   if isinstance(stmt, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))}
        is_snapshot = ({"snapshot", "restore"} <= defined
                       or any((isinstance(base, ast.Name)
                               and base.id == "SnapshotMixin")
                              or (isinstance(base, ast.Attribute)
                                  and base.attr == "SnapshotMixin")
                              for base in node.bases))
        if not is_snapshot:
            return
        self._snapshot_module = True
        self._snapshot_classes.add(node.name)
        attrs = self._snapshot_class_attrs.setdefault(node.name, {})
        for stmt in node.body:
            name = None
            value = None
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                name, value = stmt.targets[0].id, stmt.value
            elif (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                name, value = stmt.target.id, stmt.value
            if name is None:
                continue
            attrs[name] = stmt
            if self._value_is_mutable(value):
                self._snapshot_candidates.append((
                    name, stmt,
                    f"class-level mutable state '{node.name}.{name}' on a "
                    "snapshot class: pickled instances do not carry class "
                    "attributes, so every restored fork aliases the live "
                    "object"))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        params = [a.arg for a in node.args.args]
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        if node.name in _SNAPSHOT_FUNCS:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    self._snapshot_covered.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    self._snapshot_covered.add(sub.attr)
        self._func_params.append(params)
        self._local_sets.append(set())
        self._check_program_stamp_gap(node)
        self.generic_visit(node)
        self._local_sets.pop()
        self._func_params.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- calls: producers, consumers, wrappers, REPRO009/010 ---------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        attr = _call_name(func)
        receiver = _receiver_text(func)
        if attr in _EMIT_ATTRS and "tracer" in receiver:
            self._record_name_slot(node, kind="emit", arg_index=1)
        elif attr in _HOOK_ATTRS and "clock" in receiver.lower():
            self.facts.has_hook_call = True
            self._record_name_slot(
                node, kind="hook", arg_index=1 if attr == "check" else 0)
        elif attr in ("cut_at", "cut_on_visit"):
            site = None
            for keyword in node.keywords:
                if keyword.arg == "site":
                    site = keyword.value
            if site is None and len(node.args) > 1:
                site = node.args[1]
            if (isinstance(site, ast.Constant)
                    and isinstance(site.value, str)):
                Registry._add(self.registry.hook_consumers, site.value,
                              self._ref(node))
        elif (attr == "startswith" and isinstance(func, ast.Attribute)
                and _is_category_expr(func.value)
                and self.is_sanitizer_module and node.args):
            for prefix in (_string_elements(node.args[0])
                           or ([node.args[0].value]
                               if isinstance(node.args[0], ast.Constant)
                               and isinstance(node.args[0].value, str)
                               else [])):
                Registry._add(self.registry.trace_consumer_prefixes, prefix,
                              self._ref(node))
        self._check_ordering_key(node)
        self._check_json_dump(node)
        self.generic_visit(node)

    def _record_name_slot(self, node: ast.Call, kind: str,
                          arg_index: int) -> None:
        """Producer extraction for one emit/hook call."""
        if len(node.args) <= arg_index:
            return
        arg = node.args[arg_index]
        exact, prefix = _literal_or_prefix(arg)
        tables = ((self.registry.trace_producers,
                   self.registry.trace_producer_prefixes) if kind == "emit"
                  else (self.registry.hook_producers,
                        self.registry.hook_producer_prefixes))
        if exact is not None:
            Registry._add(tables[0], exact, self._ref(node))
        elif prefix is not None:
            Registry._add(tables[1], prefix, self._ref(node))
        elif isinstance(arg, ast.Name) and self._func_params:
            params = self._func_params[-1]
            if arg.id in params:
                # One level of indirection: the enclosing function is a
                # forwarding wrapper; its call sites are the producers.
                self._register_wrapper(arg.id, kind)

    def _register_wrapper(self, param: str, kind: str) -> None:
        params = self._func_params[-1]
        func_name = self._enclosing_function_name()
        if func_name is not None:
            self.facts.wrapper_defs[func_name] = _WrapperDef(
                kind=kind, arg_index=params.index(param))

    def _enclosing_function_name(self) -> str | None:
        # The visitor stack depth tells us we are inside a function; the
        # name is recovered from the parent chain maintained implicitly
        # by visit order (the innermost FunctionDef being processed).
        return self._current_function

    _current_function: str | None = None

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            saved = self._current_function
            self._current_function = node.name
            super().generic_visit(node)
            self._current_function = saved
        else:
            super().generic_visit(node)

    # -- sanitizer expectations (REPRO011 source data) ---------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.is_sanitizer_module:
            sides = [node.left] + list(node.comparators)
            if any(_is_category_expr(side) for side in sides):
                for side, op in zip(node.comparators, node.ops):
                    if isinstance(op, (ast.Eq, ast.NotEq)):
                        if (isinstance(side, ast.Constant)
                                and isinstance(side.value, str)):
                            Registry._add(self.registry.trace_consumers,
                                          side.value, self._ref(node))
                    elif isinstance(op, (ast.In, ast.NotIn)):
                        for name in self._resolve_elements(side) or []:
                            Registry._add(self.registry.trace_consumers,
                                          name, self._ref(node))
        self.generic_visit(node)

    def _resolve_elements(self, node: ast.expr) -> list[str] | None:
        elements = _string_elements(node)
        if elements is not None:
            return elements
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None:
            return self._constants.get(name)
        return None

    # -- REPRO006: finally-clears on crash-exposed paths -------------------------

    def visit_Try(self, node: ast.Try) -> None:
        handled = any(_catches_power_loss(h) for h in node.handlers)
        if not handled:
            for stmt in node.finalbody:
                cleared = self._persistent_clear_in(stmt)
                if cleared is not None:
                    target, where = cleared
                    self.facts.crash_candidates.append((
                        "REPRO006", where.lineno, where.col_offset,
                        f"finally-block unconditionally clears persistent "
                        f"state '{target}' with no PowerLossInterrupt "
                        "handler on the try: a power cut loses the only "
                        "record of in-flight work (add a rollback except "
                        "clause, or move the clear into the success path)"))
        self.generic_visit(node)

    @staticmethod
    def _persistent_clear_in(stmt: ast.stmt
                             ) -> tuple[str, ast.AST] | None:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _CLEAR_METHODS):
                receiver = _receiver_text(node.func)
                if _persistent_name(receiver):
                    return receiver, node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and _persistent_name(target.attr)
                            and isinstance(node.value, ast.Constant)
                            and node.value.value is None):
                        return target.attr, node
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    try:
                        text = ast.unparse(target)
                    except Exception:  # pragma: no cover
                        continue
                    if _persistent_name(text):
                        return text, node
        return None

    # -- REPRO007: mutation between program and its OOB stamp --------------------

    def _check_program_stamp_gap(self, func: ast.FunctionDef) -> None:
        events: list[tuple[str, ast.AST, str]] = []

        def walk_stmts(stmts: list[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                for node in ast.walk(stmt):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)):
                        attr = node.func.attr
                        if attr.startswith("program"):
                            has_oob = any(k.arg == "oob"
                                          for k in node.keywords)
                            events.append(
                                ("program-atomic" if has_oob
                                 else "program-open", node, attr))
                        elif attr in _STAMP_METHODS:
                            events.append(("stamp", node, attr))
                        elif (attr in _MUTATE_METHODS
                                and _persistent_name(
                                    _receiver_text(node.func))):
                            events.append(
                                ("mutation", node,
                                 _receiver_text(node.func)))
                    elif isinstance(node, ast.Assign):
                        for target in node.targets:
                            try:
                                text = ast.unparse(target)
                            except Exception:  # pragma: no cover
                                continue
                            if (isinstance(target,
                                           (ast.Attribute, ast.Subscript))
                                    and _persistent_name(text)):
                                events.append(("mutation", node, text))

        walk_stmts(func.body)
        open_program: ast.AST | None = None
        gap_mutation: tuple[ast.AST, str] | None = None
        for kind, node, detail in events:
            if kind == "program-open":
                open_program = node
                gap_mutation = None
            elif kind == "program-atomic":
                open_program = None
                gap_mutation = None
            elif kind == "mutation" and open_program is not None:
                if gap_mutation is None:
                    gap_mutation = (node, detail)
            elif kind == "stamp" and open_program is not None:
                if gap_mutation is not None:
                    mutation_node, target = gap_mutation
                    self.facts.crash_candidates.append((
                        "REPRO007", mutation_node.lineno,
                        mutation_node.col_offset,
                        f"persistent state '{target}' mutated between the "
                        f"on-media program (line {open_program.lineno}) and "
                        f"its OOB {detail} commit: a power cut in the gap "
                        "leaves media and metadata disagreeing (pass the "
                        "stamp inline via program(..., oob=...) or commit "
                        "before mutating)"))
                open_program = None
                gap_mutation = None

    # -- REPRO008: hash-ordered loops feeding order-sensitive sinks --------------

    def visit_For(self, node: ast.For) -> None:
        if (self.determinism_scope
                and self._iterable_is_unordered(node.iter)):
            sink = self._order_sink_in(node.body)
            if sink is not None:
                self._flag(
                    node, "REPRO008",
                    f"iteration over an unordered set feeds "
                    f"order-sensitive sink '{sink}': set order is "
                    "hash-seed dependent, so trace/schedule order is not "
                    "a pure function of the seed (iterate sorted(...))")
        self.generic_visit(node)

    @staticmethod
    def _order_sink_in(body: list[ast.stmt]) -> str | None:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    break
                if isinstance(node, ast.Yield):
                    return "yield"
                if isinstance(node, ast.Call):
                    name = _call_name(node.func)
                    if name in _ORDER_SINKS:
                        return name
        return None

    # -- REPRO009: id() as an ordering key ---------------------------------------

    def _check_ordering_key(self, node: ast.Call) -> None:
        if not self.determinism_scope:
            return
        name = _call_name(node.func)
        if name in ("sorted", "min", "max", "heappush") or name == "sort":
            for keyword in node.keywords:
                if keyword.arg == "key" and self._key_uses_id(keyword.value):
                    self._flag(
                        node, "REPRO009",
                        "id() used as an ordering key: CPython ids are "
                        "memory addresses and differ across runs (key on "
                        "a stable field instead)")
                    return
            for arg in node.args:
                if self._expr_uses_id(arg):
                    self._flag(
                        node, "REPRO009",
                        f"id() value flows into {name}(): ordering by "
                        "object address is not reproducible across runs")
                    return

    @staticmethod
    def _key_uses_id(value: ast.expr) -> bool:
        if isinstance(value, ast.Name) and value.id == "id":
            return True
        if isinstance(value, ast.Lambda):
            return any(isinstance(n, ast.Call)
                       and isinstance(n.func, ast.Name)
                       and n.func.id == "id"
                       for n in ast.walk(value.body))
        return False

    @staticmethod
    def _expr_uses_id(value: ast.expr) -> bool:
        return any(isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Name) and n.func.id == "id"
                   for n in ast.walk(value))

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (self.determinism_scope and isinstance(node.ctx, ast.Store)
                and self._expr_uses_id(node.slice)):
            self._flag(node, "REPRO009",
                       "id() used as a mapping key: address-keyed state "
                       "iterates in a different order every run")
        self.generic_visit(node)

    # -- REPRO013: state outside the snapshot graph ------------------------------

    def finalize(self) -> None:
        """Emit the snapshot-coverage findings once the module is read.

        Runs after the whole tree is visited so class-attribute
        mutations (``Cls.counter += 1``) and ``global`` rebinds seen
        anywhere in the module can anchor their finding at the
        binding's definition site.
        """
        for (cls, attr), _node in sorted(self._class_attr_mutations.items()):
            site = self._snapshot_class_attrs.get(cls, {}).get(attr)
            if site is not None:
                self._snapshot_candidates.append((
                    attr, site,
                    f"class-level counter '{cls}.{attr}' is mutated in "
                    "place but captured by no snapshot: restored forks "
                    "keep writing the golden run's meter"))
        for name, node in sorted(self._global_rebinds.items()):
            self._snapshot_candidates.append((
                name, self._module_assigns.get(name, node),
                f"module state '{name}' is rebound via 'global' in a "
                "snapshot-registered module but captured by no "
                "snapshot/restore: forks and the golden run race on one "
                "binding"))
        if not self._snapshot_module:
            return
        seen: set[tuple[str, int]] = set()
        for name, node, message in self._snapshot_candidates:
            if name in self._snapshot_covered:
                continue
            key = (name, getattr(node, "lineno", 0))
            if key in seen:
                continue
            seen.add(key)
            self._flag(node, "REPRO013", message)

    # -- REPRO010: unpinned report serialisation ---------------------------------

    def _check_json_dump(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in ("dump", "dumps")
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"):
            return
        for keyword in node.keywords:
            if (keyword.arg == "sort_keys"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value):
                return
        self._flag(node, "REPRO010",
                   f"json.{func.attr}() without sort_keys=True: report "
                   "dict key order is insertion order, so byte-identity "
                   "contracts silently break when a field is reordered")


# -- pass 2: whole-program resolution ----------------------------------------------


def _resolve_wrapper_calls(modules: list[_ModuleFacts],
                           registry: Registry) -> None:
    """Literal arguments at wrapper call sites become producers."""
    wrappers: dict[str, _WrapperDef] = {}
    for facts in modules:
        wrappers.update(facts.wrapper_defs)
    if not wrappers:
        return
    for facts in modules:
        for node in ast.walk(facts.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            wrapper = wrappers.get(name or "")
            if wrapper is None or len(node.args) <= wrapper.arg_index:
                continue
            exact, prefix = _literal_or_prefix(node.args[wrapper.arg_index])
            ref = SourceRef(facts.path, node.lineno)
            tables = ((registry.trace_producers,
                       registry.trace_producer_prefixes)
                      if wrapper.kind == "emit"
                      else (registry.hook_producers,
                            registry.hook_producer_prefixes))
            if exact is not None:
                Registry._add(tables[0], exact, ref)
            elif prefix is not None:
                Registry._add(tables[1], prefix, ref)
            if wrapper.kind == "hook":
                facts.has_hook_call = True


def _crash_exposed_modules(modules: list[_ModuleFacts]) -> set[str]:
    """Hook-call modules plus their reverse import closure.

    A cut fires inside a hook-site call and unwinds as
    ``PowerLossInterrupt`` through every caller, so exposure propagates
    along *reverse* import edges (an importer calls into the imported
    module and receives its exceptions).
    """
    exposed = {facts.module for facts in modules if facts.has_hook_call}
    by_name = {facts.module: facts for facts in modules}
    changed = True
    while changed:
        changed = False
        for facts in modules:
            if facts.module in exposed:
                continue
            for imported in facts.imports:
                target = imported
                while target:
                    if target in exposed and target in by_name:
                        exposed.add(facts.module)
                        changed = True
                        break
                    target = target.rpartition(".")[0]
                if facts.module in exposed:
                    break
    return exposed


def _cross_check(registry: Registry) -> list[StaticFinding]:
    """REPRO011/REPRO012: every consumer must resolve to a producer."""
    findings: list[StaticFinding] = []
    for name, refs in sorted(registry.trace_consumers.items()):
        if not registry.trace_event_resolves(name):
            for ref in refs:
                findings.append(StaticFinding(
                    ref.path, ref.line, 0, "REPRO011",
                    f"sanitizer expects trace event '{name}' but no "
                    "producer emits it (typo'd category, or a rule that "
                    "can never fire)"))
    for prefix, refs in sorted(registry.trace_consumer_prefixes.items()):
        if not registry.trace_prefix_resolves(prefix):
            for ref in refs:
                findings.append(StaticFinding(
                    ref.path, ref.line, 0, "REPRO011",
                    f"sanitizer expects trace category prefix '{prefix}' "
                    "but no producer emits a matching category"))
    for site, refs in sorted(registry.hook_consumers.items()):
        if not registry.hook_site_resolves(site):
            for ref in refs:
                findings.append(StaticFinding(
                    ref.path, ref.line, 0, "REPRO012",
                    f"fault-injection cut targets hook site '{site}' but "
                    "no layer visits a matching site: the fault can "
                    "never fire"))
    return findings


# -- entry points ------------------------------------------------------------------


def analyze_tree(root: str | Path) -> StaticReport:
    """Run the whole-program pass over the package tree at ``root``.

    ``root`` is the ``repro`` package directory (``src/repro`` in a
    checkout).  Paths in the returned registry and findings are
    root-relative POSIX, so baselines and the generated registry doc are
    stable across checkouts.
    """
    root = Path(root).resolve()
    registry = Registry()
    modules: list[_ModuleFacts] = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        rel = path.relative_to(root).as_posix()
        facts = _ModuleFacts(rel, _module_name(root, path),
                             ast.parse(source, filename=str(path)),
                             source.splitlines())
        is_sanitizer = (path.parent.name == "check"
                        and path.name.startswith("sanitizer"))
        in_determinism_scope = "check" not in path.relative_to(root).parts
        extractor = _Extractor(facts, registry, is_sanitizer,
                               in_determinism_scope)
        extractor.visit(facts.tree)
        extractor.finalize()
        modules.append(facts)

    _resolve_wrapper_calls(modules, registry)
    exposed = _crash_exposed_modules(modules)

    findings: list[StaticFinding] = []
    lines_by_path: dict[str, list[str]] = {}
    for facts in modules:
        lines_by_path[facts.path] = facts.source_lines
        findings.extend(facts.findings)
        if facts.module in exposed:
            for code, line, col, message in facts.crash_candidates:
                findings.append(StaticFinding(facts.path, line, col,
                                              code, message))
    findings.extend(_cross_check(registry))
    findings = [f for f in findings
                if not _suppressed(lines_by_path.get(f.path, []),
                                   f.line, f.code)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return StaticReport(registry=registry, findings=findings)


# -- baseline ----------------------------------------------------------------------


def render_baseline(report: StaticReport) -> str:
    """Serialise the findings as a committed suppression baseline."""
    payload = {
        "schema": BASELINE_SCHEMA,
        "fingerprints": sorted(f.fingerprint for f in report.findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_baseline(path: str | Path) -> set[str]:
    """Fingerprints of a committed baseline (validating its schema)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline schema must be {BASELINE_SCHEMA!r}: "
            f"{payload.get('schema')!r}")
    fingerprints = payload.get("fingerprints")
    if (not isinstance(fingerprints, list)
            or not all(isinstance(f, str) for f in fingerprints)):
        raise ValueError("baseline fingerprints must be a list of strings")
    return set(fingerprints)


def split_by_baseline(report: StaticReport, fingerprints: set[str]
                      ) -> tuple[list[StaticFinding], list[StaticFinding]]:
    """``(new, baselined)`` findings under a baseline's suppressions."""
    new = [f for f in report.findings if f.fingerprint not in fingerprints]
    old = [f for f in report.findings if f.fingerprint in fingerprints]
    return new, old


# -- registry markdown -------------------------------------------------------------


def render_registry_markdown(registry: Registry) -> str:
    """The generated ``docs/hook_registry.md`` (deterministic)."""

    def refs(entries: list[SourceRef]) -> str:
        return ", ".join(f"`{r}`" for r in sorted(
            entries, key=lambda r: (r.path, r.line)))

    lines = [
        "# Hook-site and trace-event registry",
        "",
        "Generated by `repro check --static --registry-out "
        "docs/hook_registry.md` — do not edit by hand.  The static pass "
        "cross-checks every consumer below against the producers; a "
        "consumer with no producer is a `REPRO011`/`REPRO012` finding.",
        "",
        "## FaultClock hook sites",
        "",
        "Producers are `fault_clock.check()/tick()` call sites (a "
        "trailing `*` marks an f-string site family); consumers are the "
        "injector registry's cut filters, which match by prefix.",
        "",
        "| Site | Visited at | Cut filters targeting it |",
        "|------|-----------|--------------------------|",
    ]
    sites: dict[str, tuple[list[SourceRef], bool]] = {}
    for name, entries in registry.hook_producers.items():
        sites[name] = (entries, False)
    for name, entries in registry.hook_producer_prefixes.items():
        sites[f"{name}*"] = (entries, True)
    for display in sorted(sites):
        entries, _ = sites[display]
        bare = display.rstrip("*")
        consumers = [
            f"`{site}` ({refs(crefs)})"
            for site, crefs in sorted(registry.hook_consumers.items())
            if bare.startswith(site) or site.startswith(bare)]
        lines.append(f"| `{display}` | {refs(entries)} | "
                     f"{'; '.join(consumers) if consumers else '—'} |")
    lines += [
        "",
        "## Trace events",
        "",
        "Producers are `tracer.emit()` call sites (wrapper-forwarded "
        "literals resolved); consumers are the sanitizers' expected "
        "categories and category prefixes.",
        "",
        "| Category | Emitted at | Expected by |",
        "|----------|-----------|-------------|",
    ]
    categories: dict[str, tuple[list[SourceRef], bool]] = {}
    for name, entries in registry.trace_producers.items():
        categories[name] = (entries, False)
    for name, entries in registry.trace_producer_prefixes.items():
        categories[f"{name}*"] = (entries, True)
    for display in sorted(categories):
        entries, is_prefix = categories[display]
        bare = display.rstrip("*")
        consumers = []
        for name, crefs in sorted(registry.trace_consumers.items()):
            if name == bare or (is_prefix and name.startswith(bare)):
                consumers.append(f"`{name}` ({refs(crefs)})")
        for prefix, crefs in sorted(
                registry.trace_consumer_prefixes.items()):
            if bare.startswith(prefix) or prefix.startswith(bare):
                consumers.append(f"`{prefix}*` ({refs(crefs)})")
        lines.append(f"| `{display}` | {refs(entries)} | "
                     f"{'; '.join(consumers) if consumers else '—'} |")
    lines += [
        "",
        "## Report schemas",
        "",
        "| Schema id | Pinned at |",
        "|-----------|-----------|",
    ]
    for schema, entries in sorted(registry.schemas.items()):
        lines.append(f"| `{schema}` | {refs(entries)} |")
    lines.append("")
    return "\n".join(lines)
