"""Copy-on-write simulation snapshots: capture state once, fork cheaply.

The crash-point explorer and the soak harness both used to pay
O(cuts x run): every power-cut index re-executed the whole workload
from t=0, and every soak ran its fault-free twin end-to-end.  This
module makes simulation state *forkable* instead: one golden run takes
periodic :class:`SimSnapshot` captures, and each cut (or twin) resumes
from the nearest capture, re-executing only the tail.

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
import io
import pickle
from typing import Any

#: Serialization protocol: the newest both supported interpreters speak.
_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: ``bytes`` payloads at least this large are shared between forks by
#: reference instead of being serialized into the blob.  Flash pages
#: and DRAM slot contents dominate a mid-run system's footprint, and
#: being immutable they are safe for every fork to alias — the actual
#: copy-on-write: the payload is never copied, only the object graph
#: around it.
_SHARE_MIN_BYTES = 256


class SnapshotError(Exception):
    """State could not be captured (or restored) as a snapshot."""


class _ForkPickler(pickle.Pickler):
    """Pickler that externalizes large immutable payloads.

    Big ``bytes`` objects get a persistent id indexing into ``shared``
    (deduplicated by object identity); everything else pickles
    normally.  The resulting blob holds only the object *structure* —
    restoring is cheap because the payload megabytes are aliased, not
    re-materialized.
    """

    def __init__(self, buffer: io.BytesIO, shared: list[bytes]) -> None:
        super().__init__(buffer, protocol=_PROTOCOL)
        self._shared = shared
        self._index: dict[int, int] = {}

    def persistent_id(self, obj: Any) -> int | None:
        if type(obj) is bytes and len(obj) >= _SHARE_MIN_BYTES:
            key = id(obj)
            idx = self._index.get(key)
            if idx is None:
                idx = len(self._shared)
                self._shared.append(obj)
                self._index[key] = idx
            return idx
        return None


class _ForkUnpickler(pickle.Unpickler):
    def __init__(self, buffer: io.BytesIO, shared: list[bytes]) -> None:
        super().__init__(buffer)
        self._shared = shared

    def persistent_load(self, pid: int) -> bytes:
        return self._shared[pid]


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
        blob.  Large immutable payloads are kept by reference in
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
