"""The sanitizer framework: online observers of the trace stream.

A :class:`Sanitizer` is a stateful observer fed every
:class:`~repro.sim.trace.TraceRecord` a tracer emits in its categories.
A :class:`SanitizerSuite` owns a set of sanitizers, attaches them to a
tracer and collects their violations for a post-run report.

Per-owner sharding
    Emitters tag records with an ``owner`` token
    (:func:`repro.sim.trace.next_owner`), unique per model instance.
    Sanitizers key their state by owner, so several independently built
    systems sharing one ambient tracer (a pytest session, a sweep) do
    not cross-contaminate each other's invariants.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator

from repro.check.violations import SanitizerViolation
from repro.sim.snapshot import SnapshotMixin
from repro.sim.trace import TraceRecord, Tracer


class Sanitizer:
    """Base class: observe records, report violations.

    Subclasses implement :meth:`observe` and call :meth:`violation`
    when an invariant breaks; :meth:`finalize` runs at detach time for
    end-of-run invariants ("every fill was eventually invalidated").
    """

    #: Size of the rolling context window attached to violations.
    CONTEXT_DEPTH = 8

    #: Category prefixes this sanitizer reacts to, or ``None`` for all.
    #: Purely a routing hint: ``observe`` must stay correct for any
    #: record, but an attached suite subscribes it to these prefixes
    #: only, so the tracer skips the call for the (majority of) records
    #: a sanitizer would ignore anyway.
    CATEGORIES: tuple[str, ...] | None = None

    def __init__(self) -> None:
        self.violations: list[SanitizerViolation] = []
        self._context: deque[TraceRecord] = deque(maxlen=self.CONTEXT_DEPTH)

    @property
    def name(self) -> str:
        name = type(self).__name__
        return name.removesuffix("Sanitizer") or name

    def observe(self, record: TraceRecord) -> None:
        raise NotImplementedError

    def finalize(self) -> None:
        """End-of-run invariants; default none."""

    def violation(self, rule: str, message: str,
                  record: TraceRecord | None = None,
                  **details) -> None:
        """Record a violation."""
        self.violations.append(SanitizerViolation(
            self.name, rule, message, record=record,
            context=tuple(self._context), **details))

    @staticmethod
    def owner_of(record: TraceRecord) -> str:
        """The record's owner token ('?' for untagged emitters)."""
        return str(record.fields.get("owner", "?"))


class SanitizerSuite(SnapshotMixin):
    """A set of sanitizers attached to one tracer.

    Violations are collected, never raised, so a run's report (and a
    failing test) shows *every* broken invariant.
    """

    def __init__(self, sanitizers: Iterable[Sanitizer]) -> None:
        self.sanitizers = list(sanitizers)
        self._tracer: Tracer | None = None
        self._observers: list[Callable[[TraceRecord], None]] = []

    # -- lifecycle ----------------------------------------------------------------

    def attach(self, tracer: Tracer) -> "SanitizerSuite":
        """Subscribe the suite to ``tracer``; returns self.

        Every record is appended once to a context deque the whole
        suite shares (each sanitizer's ``_context`` points at it, so a
        violation's trace window is the stream's last records), then
        handed to the ``observe`` of each sanitizer whose
        :attr:`Sanitizer.CATEGORIES` match.  The tracer resolves that
        handler list once per exact category.
        """
        if self._tracer is not None:
            raise RuntimeError("suite is already attached")
        self._tracer = tracer
        context: deque[TraceRecord] = deque(maxlen=Sanitizer.CONTEXT_DEPTH)
        for sanitizer in self.sanitizers:
            sanitizer._context = context
        self._observers = [tracer.subscribe(context.append)]
        for sanitizer in self.sanitizers:
            self._observers.append(
                tracer.subscribe(sanitizer.observe, sanitizer.CATEGORIES))
        return self

    def detach(self) -> None:
        """Run finalizers and unsubscribe from the tracer."""
        for sanitizer in self.sanitizers:
            sanitizer.finalize()
        if self._tracer is not None:
            for observer in self._observers:
                self._tracer.unsubscribe(observer)
            self._observers = []
            self._tracer = None

    def __enter__(self) -> "SanitizerSuite":
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # -- results ------------------------------------------------------------------

    @property
    def violations(self) -> list[SanitizerViolation]:
        return [v for s in self.sanitizers for v in s.violations]

    def __iter__(self) -> Iterator[SanitizerViolation]:
        return iter(self.violations)

    def report(self) -> str:
        """Human-readable report of every violation (empty when clean)."""
        return "\n".join(v.report() for v in self.violations)


def default_suite() -> SanitizerSuite:
    """The standard five-sanitizer suite."""
    from repro.check.sanitizers import (BusRaceSanitizer, CoherenceSanitizer,
                                        ProtocolSanitizer, ScrubSanitizer,
                                        TimeSanitizer)
    return SanitizerSuite([BusRaceSanitizer(), CoherenceSanitizer(),
                           ProtocolSanitizer(), ScrubSanitizer(),
                           TimeSanitizer()])
