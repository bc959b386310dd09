"""Copy-on-write simulation snapshots: capture state once, fork cheaply.

Every multi-run harness forks its runs from captured state instead of
re-running a shared prefix from t=0: crash cuts resume from the nearest
of one golden run's periodic :class:`SimSnapshot` captures, re-executing
only the tail; the soak's fault-free twin, each aging shard and each
fleet shard fork from one captured prefix.  A captured prefix that
other runs fork from is a *template*.  Each run counts the sanitizer
violations its own suite holds after ``detach`` — a forked suite
already holds the prefix's — so a template suite no run continues is
not counted.

Design
------

A snapshot is one serialized blob of every *root* object handed to
:meth:`SimSnapshot.capture` — engine clock and heap, DDR device state,
NVMC, driver journals and caches, FTL L2P map, NAND dies, fault clock,
health monitor, tracer and sanitizer positions.  Serializing the whole
root set in one pass preserves shared references (the driver and the
NVMC see the *same* restored DRAM), which per-object copies would
silently duplicate.  Each :meth:`SimSnapshot.restore` materializes an
independent copy-on-write fork: the blob itself is immutable and shared
between forks; every fork gets its own object graph and can diverge
freely.

Page payloads
-------------

Flash pages dominate a mid-run system's footprint, and being immutable
``bytes`` they are safe for every fork to alias — the actual
copy-on-write: the payload is never copied, only the object graph
around it.  A class that holds page payloads names the attributes in
its ``SNAPSHOT_PAYLOADS``; each is a ``bytes`` or a dict of them.  A
capture moves those payloads into the snapshot's ``shared`` list,
deduplicated by identity, and writes an index in their place; a
restore resolves a holder's indices in one call, fetching the payloads
from C, with no Python call per payload.  Everything else pickles as
usual: DRAM rows, for one, are ``bytearray`` and travel inside the
blob.

Callback snapshot rules
-----------------------

Callbacks (engine heap entries, tracer subscribers, eviction and commit
hooks) must be *bound methods of snapshotted objects* or *instances of
module-level classes* — both re-bind naturally on restore.  Closures
and lambdas capture frames, which cannot be serialized; holders of such
callbacks convert them to small callable classes (see
``repro.kernel.fs``).

What is deliberately *not* captured
-----------------------------------

Process-wide meters and registries — ``TraceMeter`` counters, the
ambient default tracer, the owner-token counter — are observability
plumbing shared by every simulation in the process; restoring them from
a fork would corrupt concurrent runs.
REPRO013 (``repro.check.xstatic``) flags such state so every exemption
is an explicit, baselined decision.
"""

from __future__ import annotations

import bisect
import copyreg
import functools
import io
import pickle
from typing import Any

#: Serialization protocol: the newest both supported interpreters speak.
_PROTOCOL = pickle.HIGHEST_PROTOCOL


class SnapshotError(Exception):
    """State could not be captured (or restored) as a snapshot."""


class _Call:
    """``func(*args)``, pickled as one call that the restore makes."""

    __slots__ = ("func", "args")

    def __init__(self, func: Any, args: tuple) -> None:
        self.func = func
        self.args = args

    def __reduce__(self) -> tuple:
        return self.func, self.args


def _resolve(fetch: Any, names: tuple[str, ...], state: dict) -> dict:
    """A holder's state with each payload index replaced by
    ``fetch(index)``: one call per holder, none per payload.

    A blob calls it as ``_resolve(names, state)``; the restoring
    :class:`_ForkUnpickler` binds ``fetch`` to ``shared.__getitem__``.
    """
    for name in names:
        ref = state[name]
        state[name] = (fetch(ref) if type(ref) is int else
                       dict(zip(ref, map(fetch, ref.values()))))
    return state


class _ForkPickler(pickle.Pickler):
    """Pickler that moves declared page payloads into ``shared``.

    CPython consults :meth:`reducer_override` only for objects that are
    not exact builtins, so ints, strings, tuples and the like cost no
    Python call.  A payload holder (a class with ``SNAPSHOT_PAYLOADS``)
    pickles as usual, except that its state passes through
    :func:`_resolve` with each payload replaced by its index in
    ``shared``.
    """

    def __init__(self, buffer: io.BytesIO, shared: list[bytes]) -> None:
        super().__init__(buffer, protocol=_PROTOCOL)
        self._shared = shared
        self._index: dict[int, int] = {}

    def _ref(self, payload: bytes) -> int:
        key = id(payload)
        ref = self._index.get(key)
        if ref is None:
            ref = self._index[key] = len(self._shared)
            self._shared.append(payload)
        return ref

    def reducer_override(self, obj: Any) -> Any:
        names = getattr(type(obj), "SNAPSHOT_PAYLOADS", None)
        if names is None:
            return NotImplemented
        state = dict(obj.__dict__)
        for name in names:
            value = state[name]
            state[name] = (self._ref(value) if type(value) is bytes else
                           dict(zip(value, map(self._ref, value.values()))))
        return (copyreg.__newobj__, (type(obj),),
                _Call(_resolve, (names, state)))


class _ForkUnpickler(pickle.Unpickler):
    def __init__(self, buffer: io.BytesIO, shared: list[bytes]) -> None:
        super().__init__(buffer)
        # Bound to the fork's payloads, not to this unpickler: its memo
        # keeps the resolver, and a cycle would keep the whole fork alive.
        self._resolve = functools.partial(_resolve, shared.__getitem__)

    def find_class(self, module: str, name: str) -> Any:
        if name == "_resolve" and module == __name__:
            return self._resolve
        return super().find_class(module, name)


class SimSnapshot:
    """One captured simulation state, forkable any number of times.

    ``event_index`` anchors the capture on the fault clock's global
    hook-site counter (``FaultClock.events_seen`` at capture time): a
    restored fork continues the count from exactly there, so armed
    ``cut_on_event(i)`` cuts with ``i > event_index`` fire at the same
    absolute indices a from-zero run would see.
    """

    __slots__ = ("blob", "shared", "event_index", "label")

    def __init__(self, blob: bytes, event_index: int = 0,
                 label: str = "",
                 shared: list[bytes] | None = None) -> None:
        self.blob = blob
        self.shared = shared if shared is not None else []
        self.event_index = event_index
        self.label = label

    @classmethod
    def capture(cls, roots: Any, event_index: int = 0,
                label: str = "") -> "SimSnapshot":
        """Serialize ``roots`` (any picklable structure of model objects,
        conventionally a dict of named roots) into one shared-reference
        blob.  Declared page payloads are kept by reference in
        ``shared`` rather than serialized — every fork aliases them.
        """
        buffer = io.BytesIO()
        shared: list[bytes] = []
        try:
            _ForkPickler(buffer, shared).dump(roots)
        except Exception as exc:
            raise SnapshotError(
                f"cannot capture simulation state: {exc!r}.  Callbacks in "
                "snapshotted state must be bound methods or instances of "
                "module-level classes (closures and lambdas capture "
                "frames).") from exc
        return cls(buffer.getvalue(), event_index, label, shared)

    def restore(self) -> Any:
        """Materialize an independent fork of the captured roots."""
        try:
            return _ForkUnpickler(io.BytesIO(self.blob),
                                  self.shared).load()
        except Exception as exc:
            raise SnapshotError(
                f"cannot restore snapshot {self.label or self.event_index}: "
                f"{exc!r}") from exc

    @property
    def nbytes(self) -> int:
        """Size of the structural blob (excludes shared payloads)."""
        return len(self.blob)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SimSnapshot(event_index={self.event_index}, "
                f"nbytes={self.nbytes}, shared={len(self.shared)}, "
                f"label={self.label!r})")


class SnapshotMixin:
    """Marks a state-holding model class whose instances snapshots carry.

    It adds no behaviour: whole-system forks capture every root in one
    :class:`SimSnapshot`.  REPRO013 (``repro.check.xstatic``) reads the
    marker to find the modules whose module- and class-level state a
    fork would silently alias.
    """


class SnapshotTimeline:
    """Snapshots of one golden run, keyed by fault-clock event index.

    The crash-point explorer captures at workload-op boundaries (the
    only points where no model call is in flight) and asks
    :meth:`nearest` for the latest capture *strictly before* a cut
    index: a cut at event ``i`` must re-execute the operation containing
    event ``i``, so a capture taken at ``events_seen == i`` itself is
    already too late to serve it.
    """

    def __init__(self) -> None:
        self._indices: list[int] = []
        self._snaps: list[SimSnapshot] = []

    def add(self, snap: SimSnapshot) -> None:
        if self._indices and snap.event_index <= self._indices[-1]:
            if snap.event_index == self._indices[-1]:
                return    # same boundary re-captured; keep the first
            raise SnapshotError(
                f"timeline captures must be monotonic: {snap.event_index} "
                f"after {self._indices[-1]}")
        self._indices.append(snap.event_index)
        self._snaps.append(snap)

    def nearest(self, cut_index: int) -> SimSnapshot | None:
        """Latest snapshot with ``event_index < cut_index`` (None when
        even the earliest capture is too late)."""
        pos = bisect.bisect_left(self._indices, cut_index)
        if pos == 0:
            return None
        return self._snaps[pos - 1]
