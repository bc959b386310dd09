"""AST invariant passes over ``src/repro`` (the ``repro.check.lint`` half).

Rules (suppress a line with ``# noqa`` or ``# noqa: REPRO00x``):

``REPRO001`` **determinism** — no wall-clock (``time.time()``,
    ``datetime.now()``, ...) and no unseeded randomness (module-level
    ``random.*`` calls; only explicitly seeded ``random.Random(seed)``
    instances) inside the simulation packages.  The simulator's claim to
    reproduce paper figures rests on bit-identical reruns.

``REPRO002`` **unit hygiene** — no float arithmetic assigned into
    ``*_ps``/``*_ns`` variables: true division, float literals or
    ``float()`` calls poison integer-picosecond time.  Annotating the
    target ``: float`` opts out (for deliberate rate/ratio fields).

``REPRO003`` **calibration provenance** — every constant defined in a
    ``calibration.py`` must be covered by a paper-source comment (one
    citing a figure/section/table or a measurement).  A comment block
    *with* a citation arms coverage for the fields that follow; a
    comment block without one disarms it.

Scope: REPRO001/2 apply to files under the simulation packages
(``sim``, ``ddr``, ``nvmc``, ``nand``, ``kernel``); REPRO003 applies to
any file named ``calibration.py``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

#: Package directories whose modules must obey the simulation rules.
SCOPE_DIRS = frozenset({"sim", "ddr", "nvmc", "nand", "kernel"})

#: What counts as a paper-source citation for REPRO003.
SOURCE_MARKER = re.compile(
    r"Fig\.|§|Table|\bpaper\b|\bPoC\b|measur|JEDEC|KIOPS|MB/s|\bfit\b",
    re.IGNORECASE)

_WALLCLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time"})
_WALLCLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Calls that produce integers from float inputs; REPRO002 does not look
#: inside their arguments (the conversion function owns the rounding).
_INT_BOUNDARY_CALLS = frozenset({
    "round", "int", "ns", "us", "ms", "sec", "kb", "mb", "gb", "len"})


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _suppressed(source_lines: list[str], line: int, code: str) -> bool:
    if not 1 <= line <= len(source_lines):
        return False
    text = source_lines[line - 1]
    if "noqa" not in text:
        return False
    match = re.search(r"#\s*noqa(?::\s*([A-Z0-9, ]+))?", text)
    if match is None:
        return False
    codes = match.group(1)
    return codes is None or code in codes


class _SimRulesVisitor(ast.NodeVisitor):
    """REPRO001/2 over one module's AST."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[LintFinding] = []

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(LintFinding(
            self.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0), code, message))

    # -- REPRO001: determinism ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "time" and func.attr in _WALLCLOCK_TIME_ATTRS:
                    self._flag(node, "REPRO001",
                               f"wall-clock call time.{func.attr}() in a "
                               "simulation module; simulated time must come "
                               "from the engine")
                elif (base.id in ("datetime", "date")
                        and func.attr in _WALLCLOCK_DATETIME_ATTRS):
                    self._flag(node, "REPRO001",
                               f"wall-clock call {base.id}.{func.attr}() in "
                               "a simulation module")
                elif base.id == "random" and func.attr != "Random":
                    self._flag(node, "REPRO001",
                               f"unseeded randomness random.{func.attr}(); "
                               "use a seeded random.Random(seed) instance")
            elif (isinstance(base, ast.Attribute) and base.attr == "datetime"
                    and func.attr in _WALLCLOCK_DATETIME_ATTRS):
                self._flag(node, "REPRO001",
                           f"wall-clock call datetime.{func.attr}() in a "
                           "simulation module")
        self.generic_visit(node)

    # -- REPRO002: unit hygiene --------------------------------------------------

    @staticmethod
    def _target_time_name(target: ast.expr) -> str | None:
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name is not None and (name.endswith("_ps") or name.endswith("_ns")):
            return name
        return None

    @classmethod
    def _float_poison(cls, value: ast.expr) -> str | None:
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in _INT_BOUNDARY_CALLS):
            return None   # int-producing conversion owns its arguments
        if isinstance(value, ast.Constant) and isinstance(value.value, float):
            return f"float literal {value.value}"
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Div):
            return "true division (use // for integer picoseconds)"
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "float"):
            return "float() conversion"
        for child in ast.iter_child_nodes(value):
            if isinstance(child, ast.expr):
                poison = cls._float_poison(child)
                if poison is not None:
                    return poison
        return None

    def _check_time_assignment(self, node: ast.AST, targets: list[ast.expr],
                               value: ast.expr | None) -> None:
        if value is None:
            return
        for target in targets:
            name = self._target_time_name(target)
            if name is None:
                continue
            poison = self._float_poison(value)
            if poison is not None:
                self._flag(node, "REPRO002",
                           f"{poison} assigned into time variable '{name}'; "
                           "time is integer picoseconds (annotate ': float' "
                           "if a ratio is intended)")

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_time_assignment(node, node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        annotated_float = (isinstance(node.annotation, ast.Name)
                          and node.annotation.id == "float")
        if not annotated_float:
            self._check_time_assignment(node, [node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name = self._target_time_name(node.target)
        if name is not None:
            if isinstance(node.op, ast.Div):
                self._flag(node, "REPRO002",
                           f"true division into time variable '{name}'")
            else:
                self._check_time_assignment(node, [node.target], node.value)
        self.generic_visit(node)


def _lint_calibration(path: Path, source_lines: list[str]
                      ) -> list[LintFinding]:
    """REPRO003: field coverage by paper-source comments."""
    findings: list[LintFinding] = []
    field_re = re.compile(r"^\s+(\w+)\s*:\s*[\w\[\]\. |\"']+\s*=")
    armed = False
    in_block = False
    block_has_marker = False
    for lineno, raw in enumerate(source_lines, start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            # A contiguous comment block arms (or disarms) coverage as a
            # whole; a citation anywhere in the block covers the fields
            # that follow it.
            if not in_block:
                in_block = True
                block_has_marker = False
            block_has_marker = (block_has_marker
                                or bool(SOURCE_MARKER.search(stripped)))
            continue
        if in_block:
            armed = block_has_marker
            in_block = False
        match = field_re.match(raw)
        if match is None:
            continue
        covered = armed or ("#" in raw
                            and bool(SOURCE_MARKER.search(
                                raw.split("#", 1)[1])))
        if not covered:
            findings.append(LintFinding(
                str(path), lineno, 0, "REPRO003",
                f"calibration constant '{match.group(1)}' lacks a "
                "paper-source comment (cite the figure/section/table "
                "or measurement it is anchored to)"))
    return findings


def lint_file(path: str | Path) -> list[LintFinding]:
    """Lint one Python file; returns findings (empty when clean)."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    source_lines = source.splitlines()
    findings: list[LintFinding] = []
    if any(part in SCOPE_DIRS for part in path.parts):
        tree = ast.parse(source, filename=str(path))
        visitor = _SimRulesVisitor(str(path))
        visitor.visit(tree)
        findings.extend(visitor.findings)
    if path.name == "calibration.py":
        findings.extend(_lint_calibration(path, source_lines))
    return [f for f in findings
            if not _suppressed(source_lines, f.line, f.code)]


def lint_paths(paths: Iterable[str | Path]) -> list[LintFinding]:
    """Lint files and directory trees; findings sorted by location."""
    findings: list[LintFinding] = []
    for entry in paths:
        entry = Path(entry)
        files = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for file in files:
            findings.extend(lint_file(file))
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings
