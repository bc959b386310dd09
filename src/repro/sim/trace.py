"""Structured event tracing.

Device models emit :class:`TraceRecord` entries through a shared
:class:`Tracer`.  Tracing is off by default (the hot paths check a single
boolean) and tests enable it to assert on protocol-level behaviour, e.g.
"the NVMC only drove the bus inside extended-tRFC windows".

Two consumers exist:

* **retention** — records are stored in ``Tracer.records`` (optionally
  capacity-bounded) for post-hoc inspection and audits;
* **subscription** — online observers (the ``repro.check`` sanitizers)
  registered with :meth:`Tracer.subscribe` see *every* record that passes
  the enabled/category filters, even records the capacity bound drops
  from storage.  Observation is therefore complete while the archived
  trace may not be — which is why the sanitizers refuse to *certify* a
  run whose tracer reports ``dropped > 0``.

Models that accept a ``tracer`` argument treat ``None`` as "use the
ambient default tracer" (:func:`default_tracer`), which is the disabled
:data:`NULL_TRACER` unless a harness installed one via
:func:`set_default_tracer` / :func:`use_tracer`.  This lets test
fixtures and ``python -m repro check run`` turn on always-on sanitizing
without threading a tracer through every constructor call site.
"""

from __future__ import annotations

import itertools
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.sim.snapshot import SnapshotMixin
from repro.units import format_time


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced occurrence.

    ``category`` is a dotted namespace (``"ddr.cmd"``, ``"nvmc.dma"``,
    ``"cp.post"``, ...), ``fields`` carries structured payload.  By
    convention emitters include an ``owner`` field naming the subsystem
    instance the record belongs to, so online observers can shard state
    when several systems share one tracer.
    """

    time_ps: int
    category: str
    message: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.fields.items())
        text = f"[{format_time(self.time_ps):>12}] {self.category}: {self.message}"
        return f"{text} {extra}".rstrip()


class TraceMeter:
    """Process-wide trace counters for the perf bench harness.

    ``records_emitted`` counts every record that passed the enabled /
    category filters (whether or not retention kept it);
    ``peak_retained`` is the high-water mark of any single tracer's
    retained record list; ``records_elided`` counts emissions that
    skipped building a :class:`TraceRecord` because the record would
    have been neither retained (capacity reached) nor observed (no
    subscribers) — the pool-the-garbage degenerate case where the
    cheapest pooled object is no object.  Disabled tracers never touch
    these, so the normal (tracing-off) hot path is unaffected.
    """

    records_emitted: int = 0
    peak_retained: int = 0
    records_elided: int = 0

    @classmethod
    def reset(cls) -> None:
        cls.records_emitted = 0
        cls.peak_retained = 0
        cls.records_elided = 0


class Tracer(SnapshotMixin):
    """Collects trace records, optionally filtered by category prefix.

    Drop semantics under a ``capacity`` bound are intentionally
    retention-only: a record past capacity is still *constructed* and
    still *delivered to every subscriber* — only its archival in
    ``records`` is skipped (counted in ``dropped``).  Certification in
    ``repro.check`` keys off ``dropped`` because the archived trace is
    incomplete, but online observation (the sanitizers themselves)
    remains complete.  The disabled / category-filtered early-outs in
    :meth:`emit` happen *before* record construction and before
    subscriber delivery — a filtered-out record does not exist for
    either consumer.
    """

    def __init__(self, enabled: bool = False,
                 categories: tuple[str, ...] | None = None,
                 capacity: int | None = None) -> None:
        self.enabled = enabled
        # Normalised to a real tuple so ``emit`` can hand it straight to
        # ``str.startswith`` (which accepts a tuple of prefixes).
        self.categories = tuple(categories) if categories is not None else None
        self.capacity = capacity
        self.records: list[TraceRecord] = []
        self.dropped = 0
        self._warned_dropped = False
        self._subscribers: list[Callable[[TraceRecord], None]] = []
        # The hot append path, bound once (re-bound by ``clear``): the
        # per-emit cost is a single call with no attribute traversal.
        self._retain = self.records.append

    def emit(self, time_ps: int, category: str, message: str,
             **fields: Any) -> None:
        """Record an event if tracing is on and the category is selected.

        The early-outs are ordered cheapest-first and fire before the
        :class:`TraceRecord` is built: a disabled or filtered ``emit`` is
        one or two branches, no allocation, no subscriber calls.  Past
        the filters the common case is one record construction, one
        pre-bound list append, and the subscriber fan-out; a record that
        would be neither retained nor observed is never built at all
        (``TraceMeter.records_elided``).
        """
        if not self.enabled:
            return
        categories = self.categories
        if categories is not None and not category.startswith(categories):
            return
        TraceMeter.records_emitted += 1
        records = self.records
        if self.capacity is not None and len(records) >= self.capacity:
            self.dropped += 1
            if not self._warned_dropped:
                self._warned_dropped = True
                warnings.warn(
                    f"Tracer capacity ({self.capacity} records) reached; "
                    "further records are dropped from storage (subscribers "
                    "still observe them).  The archived trace is incomplete "
                    "and sanitizers will refuse to certify this run.",
                    RuntimeWarning, stacklevel=2)
            subscribers = self._subscribers
            if not subscribers:
                TraceMeter.records_elided += 1
                return
            record = TraceRecord(time_ps, category, message, fields)
            for subscriber in subscribers:
                subscriber(record)
            return
        record = TraceRecord(time_ps, category, message, fields)
        self._retain(record)
        if len(records) > TraceMeter.peak_retained:
            TraceMeter.peak_retained = len(records)
        for subscriber in self._subscribers:
            subscriber(record)

    # -- snapshot support -------------------------------------------------------

    def __getstate__(self) -> dict:
        # A snapshot carries simulation state, not observation history:
        # the record archive stays out of the blob, so a restored tracer
        # starts with an empty one (``dropped`` and the subscribers
        # travel).  ``_retain`` is a bound method of the archive and is
        # re-bound on restore.
        state = self.__dict__.copy()
        del state["_retain"]
        state["records"] = []
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._retain = self.records.append

    # -- online observation -----------------------------------------------------

    def subscribe(self, observer: Callable[[TraceRecord], None]
                  ) -> Callable[[TraceRecord], None]:
        """Register an online observer of every emitted record.

        Subscribers see records *before* any capacity-based drop, so
        observation is complete even when retention is bounded.  Returns
        the observer for symmetry with :meth:`unsubscribe`.
        """
        self._subscribers.append(observer)
        return observer

    def unsubscribe(self, observer: Callable[[TraceRecord], None]) -> None:
        """Remove a previously registered observer (no-op if absent)."""
        try:
            self._subscribers.remove(observer)
        except ValueError:
            pass

    # -- retention --------------------------------------------------------------

    def filter(self, prefix: str) -> list[TraceRecord]:
        """All records whose category starts with ``prefix``."""
        return [r for r in self.records if r.category.startswith(prefix)]

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()
        self.dropped = 0
        self._warned_dropped = False
        self._retain = self.records.append

    def summary(self) -> str:
        """One-line retention summary (shown by the check CLI)."""
        text = f"{len(self.records)} trace records retained"
        if self.dropped:
            text += f", {self.dropped} dropped (capacity {self.capacity})"
        return text

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


#: A module-level tracer that is always disabled; models default to it so
#: construction never requires threading a tracer through every layer.
NULL_TRACER = Tracer(enabled=False)

#: The ambient tracer adopted by models constructed with ``tracer=None``.
_DEFAULT_TRACER: Tracer = NULL_TRACER

_OWNER_COUNTER = itertools.count()


def default_tracer() -> Tracer:
    """The ambient tracer (``NULL_TRACER`` unless a harness set one)."""
    return _DEFAULT_TRACER


def set_default_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as the ambient default; returns the previous one.

    Passing ``None`` restores :data:`NULL_TRACER`.
    """
    global _DEFAULT_TRACER
    previous = _DEFAULT_TRACER
    _DEFAULT_TRACER = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Context manager: ambient default tracer for the enclosed block."""
    previous = set_default_tracer(tracer)
    try:
        yield tracer
    finally:
        set_default_tracer(previous)


def next_owner(prefix: str) -> str:
    """A process-unique owner token for trace emissions (``"nvmc#3"``).

    Deterministic within a run (a plain counter), unique across model
    instances, so sanitizers can shard their per-system state even when
    many systems share one ambient tracer.
    """
    return f"{prefix}#{next(_OWNER_COUNTER)}"
