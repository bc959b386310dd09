"""Schema-pinned JSON reports: one shape checker, one write-and-gate kernel.

Every harness writes one artifact that CI archives and the determinism
gates diff byte-for-byte: ``FAULTS_*.json`` (``repro.faults/1``),
``SOAK_*.json`` (``repro.soak/1``), ``RECOVERY_*.json``
(``repro.recovery/1``), ``FLEET_*.json`` (``repro.fleet/1``),
``CHAOS_*.json`` (``repro.fleet.chaos/1``) and ``AGING_*.json``
(``repro.aging/1``); ``repro check --static --format json`` prints a
seventh (``repro.check.static/1``).

A report module declares its ``SCHEMA`` pin and one ``SHAPE``: a dict
is a closed object (missing *and* unknown keys are problems, except
keys wrapped in :class:`Optional`), :class:`ListOf` / :class:`MapOf`
describe lists and free-keyed objects, and a :class:`Leaf` tests one
value (:data:`COUNT` is a non-negative int, :func:`one_of` an
enumerated field).  :func:`check` walks a parsed payload against a
shape and names the path of every problem.

A harness result is a :class:`Gated` object: ``to_dict()`` is the
report body, ``gates`` its acceptance clauses as data — one
:class:`Gate` ``(name, ok, line)`` each — and ``ok`` is every gate
passing.  :func:`write_and_gate` is the one exit path every harness CLI
shares: run, render with sorted keys (``generated_at`` is the only
wall-clock field), check the shape, write ``KIND_<timestamp>.json``,
then print each failed gate's line and return 0, 1 or 2.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

Problems = list[str]


def schema_id(kind: str, version: int) -> str:
    """The pinned schema string, e.g. ``repro.fleet/1``."""
    return f"repro.{kind}/{version}"


# -- declared shapes -------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """A scalar field: ``test`` accepts a value; ``expect`` names the rule."""

    expect: str
    test: Callable[[Any], bool]
    witness: Any = None               #: a value that passes (for tests)
    choices: tuple = ()               #: the allowed values, if enumerated


@dataclass(frozen=True)
class ListOf:
    """A JSON list whose every item has shape ``item``."""

    item: Any
    non_empty: bool = False


@dataclass(frozen=True)
class MapOf:
    """A JSON object with free keys whose every value has shape ``value``."""

    value: Any


@dataclass(frozen=True)
class Optional:
    """A key of a closed object that may be absent."""

    shape: Any


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 0


COUNT = Leaf("a non-negative int", _is_count, 0)
INT = Leaf("an int", lambda value: type(value) is int, 0)
BOOL = Leaf("a bool", lambda value: isinstance(value, bool), True)
STR = Leaf("a string", lambda value: isinstance(value, str), "")
TIMESTAMP = Leaf("a string or null",
                 lambda value: value is None or isinstance(value, str))


def one_of(*choices: Any) -> Leaf:
    """An enumerated field (one choice: a pinned constant)."""
    expect = (repr(choices[0]) if len(choices) == 1
              else f"one of {list(choices)}")
    return Leaf(expect,
                lambda value: any(type(value) is type(choice)
                                  and value == choice for choice in choices),
                choices[0], tuple(choices))


def check(shape: Any, payload: Any) -> Problems:
    """Problems with a parsed report; an empty list means valid."""
    problems: Problems = []
    _walk(shape, payload, "", problems)
    return problems


def _walk(shape: Any, value: Any, path: str, problems: Problems) -> None:
    if isinstance(shape, dict):
        where = path or "report"
        if not isinstance(value, dict):
            problems.append(f"{where} must be an object")
            return
        required = {key for key, sub in shape.items()
                    if not isinstance(sub, Optional)}
        missing = sorted(required - value.keys())
        if missing:
            problems.append(f"missing {where} keys: {missing}")
        unknown = sorted(value.keys() - shape.keys())
        if unknown:
            problems.append(f"unknown {where} keys: {unknown}")
        for key, sub in shape.items():
            if key in value:
                if isinstance(sub, Optional):
                    sub = sub.shape
                _walk(sub, value[key], f"{path}.{key}" if path else key,
                      problems)
    elif isinstance(shape, ListOf):
        if not isinstance(value, list) or (shape.non_empty and not value):
            kind = "non-empty list" if shape.non_empty else "list"
            problems.append(f"{path} must be a {kind}")
            return
        for index, item in enumerate(value):
            _walk(shape.item, item, f"{path}[{index}]", problems)
    elif isinstance(shape, MapOf):
        if not isinstance(value, dict):
            problems.append(f"{path} must be an object")
            return
        for key in sorted(value):
            _walk(shape.value, value[key], f"{path}[{key}]", problems)
    elif not shape.test(value):
        problems.append(f"{path} must be {shape.expect}")


# -- harness results and the write-and-gate kernel --------------------------------


class Gate(NamedTuple):
    """One acceptance clause; ``line`` is printed when it fails."""

    name: str
    ok: bool
    line: str


class Gated:
    """Mixin for harness results: ``ok`` is every gate passing."""

    @property
    def gates(self) -> list[Gate]:
        raise NotImplementedError

    @property
    def ok(self) -> bool:
        return all(gate.ok for gate in self.gates)


def render_report(result: Any, timestamp: str | None = None) -> str:
    """Serialise a harness result's ``to_dict()`` body.

    ``timestamp`` is stamped into ``generated_at`` verbatim; pass None
    (the default) for byte-stable output.
    """
    payload = result.to_dict()
    payload["generated_at"] = timestamp
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_and_gate(kind: str, shape: Any, out: str,
                   run: Callable[[], Any],
                   summary: Callable[[Any], str]) -> int:
    """Run one harness and gate on its result; the CLI exit status.

    ``run`` builds the configuration, prints the banner and returns the
    result; a :class:`~repro.errors.ConfigError` from it propagates to
    :func:`repro.cli.main`, which makes it a usage error (2).  The
    report is checked against ``shape`` (a problem is a tooling bug: 2,
    nothing written), written to ``out/KIND_<timestamp>.json``, then
    ``summary`` prints the summary lines and returns the line printed
    when every gate passes (0).  Each failed gate prints its line to
    stderr (1).
    """
    result = run()
    timestamp = time.strftime("%Y%m%d-%H%M%S")
    text = render_report(result, timestamp=timestamp)
    problems = check(shape, json.loads(text))
    if problems:
        for problem in problems:
            print(f"report schema problem: {problem}", file=sys.stderr)
        return 2
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{kind}_{timestamp}.json"
    path.write_text(text)
    print(f"wrote {path}")
    clean = summary(result)
    failed = [gate for gate in result.gates if not gate.ok]
    for gate in failed:
        print(gate.line, file=sys.stderr)
    if failed:
        return 1
    print(clean)
    return 0
