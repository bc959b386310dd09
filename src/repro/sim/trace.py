"""Structured event tracing.

Device models emit :class:`TraceRecord` entries through a shared
:class:`Tracer`.  Tracing is off by default (the hot paths check a single
boolean) and tests enable it to assert on protocol-level behaviour, e.g.
"the NVMC only drove the bus inside extended-tRFC windows".

A record has one consumer: the online observers (the ``repro.check``
sanitizers, or a test's list) registered with :meth:`Tracer.subscribe`.
The tracer hands each record to the subscribers whose category prefixes
match and keeps none, so a long run holds no trace history.

Delivery is routed once per exact category: the first record of a
category resolves the observers it goes to, and later records of that
category go straight to that handler tuple.  Record messages are
rendered only when read (:attr:`TraceRecord.message`): hot emitters
pass a :class:`MessageTemplate` over the record's fields, or an object
whose ``str`` is the message, instead of formatting text no observer
reads.

Models that accept a ``tracer`` argument treat ``None`` as "use the
ambient default tracer" (:func:`default_tracer`), which is the disabled
:data:`NULL_TRACER` unless a harness installed one via
:func:`set_default_tracer` / :func:`use_tracer`.  This lets test
fixtures and ``python -m repro check run`` turn on always-on sanitizing
without threading a tracer through every constructor call site.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.sim.snapshot import SnapshotMixin
from repro.units import format_time

#: An online observer of trace records.
Observer = Callable[["TraceRecord"], None]


class MessageTemplate(str):
    """A record message rendered on read: ``str.format_map`` over the
    record's fields (``MessageTemplate("{kind} {bytes}B")``).

    Hot emitters pass a module-level template instead of an f-string, so
    a record whose message nobody reads never formats one.
    """

    __slots__ = ()


class TraceRecord:
    """One traced occurrence.

    ``category`` is a dotted namespace (``"ddr.cmd"``, ``"nvmc.dma"``,
    ``"cp.post"``, ...), ``fields`` carries structured payload.  By
    convention emitters include an ``owner`` field naming the subsystem
    instance the record belongs to, so online observers can shard state
    when several systems share one tracer.

    The message is stored as the emitter passed it and rendered by
    :attr:`message`: a :class:`MessageTemplate` is formatted over
    ``fields``, anything else (a plain string, a bus ``Command``) by
    ``str``.
    """

    __slots__ = ("time_ps", "category", "_message", "fields")

    def __init__(self, time_ps: int, category: str, message: object,
                 fields: dict[str, Any] | None = None) -> None:
        self.time_ps = time_ps
        self.category = category
        self._message = message
        self.fields = {} if fields is None else fields

    @property
    def message(self) -> str:
        message = self._message
        if isinstance(message, MessageTemplate):
            return message.format_map(self.fields)
        return str(message)

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.fields.items())
        text = f"[{format_time(self.time_ps):>12}] {self.category}: {self.message}"
        return f"{text} {extra}".rstrip()

    def __repr__(self) -> str:
        return (f"TraceRecord(time_ps={self.time_ps!r}, "
                f"category={self.category!r}, message={self.message!r}, "
                f"fields={self.fields!r})")


class _TraceMeter:
    """Process-wide trace counters, read by the perfbench work counters.

    ``records_emitted`` counts every record an enabled tracer emitted.
    ``peak_retained`` always reads 0: a tracer keeps no records, and the
    field stays because the perfbench counters report it.  Disabled
    tracers never touch these, so the normal (tracing-off) hot path is
    unaffected.
    """

    __slots__ = ("records_emitted", "peak_retained")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.records_emitted = 0
        self.peak_retained = 0


#: The process-wide meter.  One instance rather than class attributes:
#: assigning a class attribute on every record invalidates the
#: interpreter's attribute caches for the class, which cost more than
#: the rest of a filtered ``emit``.
TraceMeter = _TraceMeter()


class Tracer(SnapshotMixin):
    """Delivers trace records to its subscribers and keeps none.

    The disabled early-out in :meth:`emit` happens before record
    construction, and a record no subscriber would observe is never
    built.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: (observer, category prefixes or None for all), in order.
        self._subscribers: list[tuple[Observer, tuple[str, ...] | None]] = []
        #: Exact category -> the observers its records go to; filled by
        #: :meth:`_route`.
        self._routes: dict[str, tuple[Observer, ...]] = {}

    def emit(self, time_ps: int, category: str, message: object,
             **fields: Any) -> None:
        """Deliver an event to the matching subscribers if tracing is on.

        A disabled ``emit`` is one branch; past it, one dict lookup
        yields the category's handler tuple.  ``message`` is stored
        unrendered (see :class:`TraceRecord`).
        """
        if not self.enabled:
            return
        try:
            handlers = self._routes[category]
        except KeyError:
            handlers = self._route(category)
        TraceMeter.records_emitted += 1
        if handlers:
            record = TraceRecord(time_ps, category, message, fields)
            for handler in handlers:
                handler(record)

    def _route(self, category: str) -> tuple[Observer, ...]:
        """Resolve and cache where records of ``category`` go."""
        handlers = tuple(
            observer for observer, prefixes in self._subscribers
            if prefixes is None or category.startswith(prefixes))
        self._routes[category] = handlers
        return handlers

    # -- snapshot support -------------------------------------------------------

    def __getstate__(self) -> dict:
        # The subscribers travel; the route cache is rebuilt on first use.
        state = self.__dict__.copy()
        state["_routes"] = {}
        return state

    # -- online observation -----------------------------------------------------

    def subscribe(self, observer: Observer,
                  categories: tuple[str, ...] | None = None) -> Observer:
        """Register an online observer of emitted records.

        ``categories`` restricts delivery to records whose category
        starts with one of the prefixes (``None``: every record).
        Returns the observer for symmetry with :meth:`unsubscribe`.
        """
        prefixes = tuple(categories) if categories is not None else None
        self._subscribers.append((observer, prefixes))
        self._routes.clear()
        return observer

    def unsubscribe(self, observer: Observer) -> None:
        """Remove a previously registered observer (no-op if absent)."""
        for index, (subscribed, _prefixes) in enumerate(self._subscribers):
            if subscribed == observer:
                del self._subscribers[index]
                self._routes.clear()
                return


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
