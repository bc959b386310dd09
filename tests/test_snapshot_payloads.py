"""Page payloads in snapshots: declared where they live, aliased by forks.

A capture moves page payloads into the snapshot's ``shared`` list only
from the attributes their classes name in ``SNAPSHOT_PAYLOADS``; any
other ``bytes`` is pickled into the blob.  These tests walk the roots
each snapshotting harness captures, the way pickle does, and require
every ``bytes`` of 256 B or more to sit in a declared attribute, so a
new holder cannot silently bloat blobs.  Two forks of one capture must
alias every payload.  ``fleet chaos`` captures through ``fleet``'s
``build_prefix``, so the fleet case covers it.
"""

from __future__ import annotations

import gc
import types
import weakref
from contextlib import contextmanager

import pytest

import repro.recovery.explorer as explorer
from repro.aging.campaign import AgingConfig, run_aging
from repro.fleet.shard import build_prefix
from repro.fleet.tenants import default_tenants
from repro.health.soak import run_soak
from repro.nand.device import NANDDie
from repro.nand.ftl import FlashTranslationLayer
from repro.sim.snapshot import SimSnapshot
from repro.workloads.shadow import Leg

#: Smaller ``bytes`` may pickle into the blob.
PAYLOAD_BYTES = 256

_LEAVES = (int, float, complex, bool, str, bytearray, type(None))
_BY_REFERENCE = (type, types.FunctionType, types.BuiltinFunctionType,
                 types.ModuleType)


def payloads(roots) -> list[tuple[bytes, tuple[type, str] | None]]:
    """Every ``bytes`` of ``PAYLOAD_BYTES`` or more that pickling
    ``roots`` reaches, each with the ``(class, attribute)`` of the
    nearest object state it sits in, in a fixed walk order."""
    found = []
    seen: set[int] = set()
    alive = []     # keeps reduce temporaries alive, so ids stay unique
    stack: list = [(roots, None)]
    while stack:
        obj, site = stack.pop()
        kind = type(obj)
        if kind is bytes:
            if len(obj) >= PAYLOAD_BYTES:
                found.append((obj, site))
            continue
        if kind in _LEAVES or isinstance(obj, _BY_REFERENCE):
            continue
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        alive.append(obj)
        if kind in (list, tuple, set, frozenset):
            stack.extend((item, site) for item in reversed(list(obj)))
            continue
        if kind is dict:
            for key, value in reversed(list(obj.items())):
                stack.append((value, site))
                stack.append((key, site))
            continue
        reduced = obj.__reduce_ex__(5)
        if isinstance(reduced, str):
            continue                     # pickled by reference
        _func, args, state, items, pairs = (tuple(reduced) + (None,) * 5)[:5]
        alive.append(reduced)
        parts: list = [(arg, site) for arg in args]
        states = state if type(state) is tuple else (state,)
        for part in states:
            if type(part) is dict:
                parts.extend((value, (kind, name))
                             for name, value in part.items())
            elif part is not None:
                parts.append((part, site))
        parts.extend((item, site) for item in items or ())
        for key, value in pairs or ():
            parts += [(key, site), (value, site)]
        stack.extend(reversed(parts))
    return found


def declared(site: tuple[type, str] | None) -> bool:
    return site is not None and site[1] in getattr(
        site[0], "SNAPSHOT_PAYLOADS", ())


@contextmanager
def captures():
    """Each snapshot taken inside the block, with the payloads its roots
    held at the moment of capture."""
    taken: list[tuple[SimSnapshot, list]] = []
    real = SimSnapshot.capture.__func__

    def capture(cls, roots, event_index=0, label=""):
        snap = real(cls, roots, event_index, label)
        taken.append((snap, payloads(roots)))
        return snap

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimSnapshot, "capture", classmethod(capture))
        yield taken


HARNESSES = {
    "crash": lambda: explorer._golden_run(0, explorer.SNAP_CADENCE_QUICK),
    "soak": lambda: run_soak(seed=0, quick=True),
    "aging": lambda: run_aging(AgingConfig(
        quick=True, shards=1, max_epochs=1, footprint_pages=256,
        epoch_steps=512, gc_headroom=2)),
    "fleet": lambda: build_prefix(default_tenants(True), True, 0),
}


@pytest.fixture(scope="module")
def taken() -> dict[str, list[tuple[SimSnapshot, list]]]:
    runs = {}
    for name, run in HARNESSES.items():
        with captures() as snaps:
            run()
        runs[name] = snaps
    return runs


@pytest.mark.parametrize("harness", sorted(HARNESSES))
def test_every_page_payload_sits_in_a_declared_attribute(taken, harness):
    assert taken[harness]
    for snap, found in taken[harness]:
        stray = {site for _, site in found if not declared(site)}
        assert not stray, f"{snap.label}: undeclared payloads in {stray}"
        shared = [id(page) for page in snap.shared]
        assert len(set(shared)) == len(shared), "a payload shared twice"
        assert {id(page) for page, _ in found} == set(shared)


def test_the_four_payload_attributes(taken):
    """The walk reaches each declared attribute, and nothing else."""
    sites = {site for snaps in taken.values() for _, found in snaps
             for _, site in found}
    assert sites == {(NANDDie, "_data"), (NANDDie, "_erased_page"),
                     (FlashTranslationLayer, "_zero_page"),
                     (Leg, "shadow")}


@pytest.mark.parametrize("harness", sorted(HARNESSES))
def test_forks_alias_every_payload(taken, harness):
    snap, _ = taken[harness][-1]
    first, second = (payloads(snap.restore()) for _ in range(2))
    assert len(first) == len(second) > 0
    shared = {id(page) for page in snap.shared}
    for (page, site), (twin, twin_site) in zip(first, second):
        assert page is twin
        assert id(page) in shared
        assert site == twin_site and declared(site)


def test_a_fork_is_freed_without_the_cycle_collector(taken):
    """Nothing a restore leaves behind keeps the fork alive: a crash
    sweep restores thousands of forks, each dropped after its tail."""
    snap, _ = taken["crash"][-1]
    gc.collect()
    gc.disable()
    try:
        fork = snap.restore()
        system = weakref.ref(fork["system"])
        del fork
        assert system() is None
    finally:
        gc.enable()


def test_a_payload_two_holders_hold_is_shared_once():
    zeros, ones = bytes(PAYLOAD_BYTES), b"\x01" * PAYLOAD_BYTES
    first, second = Leg(None, 2), Leg(None, 2)
    first.shadow = {0: zeros, 1: ones}
    second.shadow = {0: ones, 1: zeros}
    snap = SimSnapshot.capture({"first": first, "second": second})
    assert [id(page) for page in snap.shared] == [id(zeros), id(ones)]
    fork = snap.restore()
    assert fork["first"].shadow == {0: zeros, 1: ones}
    assert fork["second"].shadow == {0: ones, 1: zeros}
    assert fork["first"].shadow[0] is fork["second"].shadow[1] is zeros
