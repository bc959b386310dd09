"""The declared report shapes and the one checker that walks them.

For every report ``SHAPE`` a witness payload is built from the shape
itself and must validate.  Then every leaf is mutated in turn — its key
deleted, a count set to -1, a bool set to ``"yes"``, an enumerated field
set to an unlisted value, any typed field set to an object — and
:func:`repro.report.check` must name that leaf's path in a problem.
"""

import copy

import pytest

from repro.aging.report import SHAPE as AGING
from repro.check.xstatic import SHAPE as STATIC
from repro.faults.report import SHAPE as FAULTS
from repro.fleet.chaos_report import SHAPE as CHAOS
from repro.fleet.report import SHAPE as FLEET
from repro.health.report import SHAPE as SOAK
from repro.recovery.report import SHAPE as RECOVERY
from repro.report import (BOOL, COUNT, Leaf, ListOf, MapOf, Optional, check,
                          one_of)

SHAPES = {"faults": FAULTS, "soak": SOAK, "recovery": RECOVERY,
          "fleet": FLEET, "fleet.chaos": CHAOS, "aging": AGING,
          "check.static": STATIC}


def witness(shape):
    """A payload with every key present and one item per list or map."""
    if isinstance(shape, Optional):
        return witness(shape.shape)
    if isinstance(shape, dict):
        return {key: witness(sub) for key, sub in shape.items()}
    if isinstance(shape, ListOf):
        return [witness(shape.item)]
    if isinstance(shape, MapOf):
        return {"0": witness(shape.value)}
    return copy.deepcopy(shape.witness)


def leaves(shape, steps=()):
    """``(steps, leaf, deletable)`` for every leaf of ``shape``.

    ``steps`` walks the witness: ``("key", k)`` into an object,
    ``("item", 0)`` into a list, ``("entry", "0")`` into a map.
    """
    if isinstance(shape, dict):
        for key, sub in shape.items():
            optional = isinstance(sub, Optional)
            sub = sub.shape if optional else sub
            step = steps + (("key", key),)
            if isinstance(sub, Leaf):
                yield step, sub, not optional
            else:
                yield from leaves(sub, step)
    elif isinstance(shape, (ListOf, MapOf)):
        step = (steps + (("item", 0),) if isinstance(shape, ListOf)
                else steps + (("entry", "0"),))
        sub = shape.item if isinstance(shape, ListOf) else shape.value
        if isinstance(sub, Leaf):
            yield step, sub, False
        else:
            yield from leaves(sub, step)


def render(steps):
    """The path as the checker spells it: ``a.b[0].c``, ``m[0]``."""
    text = ""
    for kind, key in steps:
        if kind == "key":
            text = f"{text}.{key}" if text else key
        else:
            text = f"{text}[{key}]"
    return text


def owner(payload, steps):
    for _, key in steps[:-1]:
        payload = payload[key]
    return payload


def mutations(leaf, deletable):
    if deletable:
        yield "delete", None
    if leaf is COUNT:
        yield "negative", -1
    if leaf is BOOL:
        yield "not-a-bool", "yes"
    if leaf.choices:
        yield "unlisted", "<unlisted>"
    yield "wrong-type", {"unexpected": 1}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_checker_names_every_mutated_path(name):
    shape = SHAPES[name]
    good = witness(shape)
    assert check(shape, good) == []
    assert check(shape, [good]) == ["report must be an object"]
    misses = []
    tried = 0
    for steps, leaf, deletable in leaves(shape):
        path = render(steps)
        parent = render(steps[:-1]) or "report"
        key = steps[-1][1]
        for mutation, value in mutations(leaf, deletable):
            tried += 1
            payload = copy.deepcopy(good)
            if mutation == "delete":
                del owner(payload, steps)[key]
                named = [p for p in check(shape, payload)
                         if p.startswith(f"missing {parent} keys")
                         and repr(key) in p]
            else:
                owner(payload, steps)[key] = value
                named = [p for p in check(shape, payload)
                         if p.startswith(f"{path} must be ")]
            if not named:
                misses.append(f"{mutation} {path}")
    assert tried > 0
    assert misses == []


def test_optional_unknown_and_non_empty_keys():
    shape = {"items": ListOf(COUNT, non_empty=True), "flag": Optional(BOOL),
             "pass": one_of(1, 2)}
    assert check(shape, {"items": [0], "pass": 2}) == []
    assert check(shape, {"items": [], "flag": True, "pass": True,
                         "extra": 1}) == [
        "unknown report keys: ['extra']",
        "items must be a non-empty list",
        "pass must be one of [1, 2]"]   # True == 1, but it is no 1
