"""The discrete-event engine: a time-ordered callback queue.

The engine owns the simulated clock (integer picoseconds) and a binary
heap of pending callbacks.  Ties at the same timestamp are broken by
insertion order, which makes every simulation fully deterministic.

Callbacks are plain callables, never generator coroutines:
:mod:`repro.sim.snapshot` can serialize a callback's state but not a
suspended generator frame.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Protocol

from repro.errors import SimulationError
from repro.sim.snapshot import SnapshotMixin

Callback = Callable[[], Any]


class InjectionClock(Protocol):
    """Duck type of :class:`repro.faults.clock.FaultClock`.

    The engine stays ignorant of the faults package (layering: ``sim``
    is the bottom of the stack); anything with a ``check(now_ps, site)``
    that may raise to abandon the run can be installed.
    """

    def check(self, now_ps: int, site: str) -> None: ...


class Engine(SnapshotMixin):
    """Event queue and simulated clock.

    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.call_at(100, lambda: hits.append(eng.now))
    >>> _ = eng.call_at(50, lambda: hits.append(eng.now))
    >>> eng.run()
    >>> hits
    [50, 100]
    """

    def __init__(self) -> None:
        self._now = 0
        self._heap: list[tuple[int, int, Callback]] = []
        self._seq = 0
        self._running = False
        self.events_executed = 0
        self._fault_clock: InjectionClock | None = None

    def install_fault_clock(self, clock: InjectionClock | None) -> None:
        """Attach (or with ``None`` detach) a fault-injection clock.

        While installed, the clock's ``check`` runs before every event
        dispatch with the event's timestamp and site ``"engine"``; a
        raising check (power loss) abandons the run mid-queue, leaving
        undelivered events pending — exactly the state a campaign's
        drain-and-recover path wants to inspect.  The common
        (no-clock) dispatch path stays a single local ``is None`` test.
        """
        self._fault_clock = clock

    @property
    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now

    def call_at(self, time_ps: int, callback: Callback) -> None:
        """Schedule ``callback`` to run at absolute time ``time_ps``."""
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule into the past: {time_ps} < now {self._now}"
            )
        heapq.heappush(self._heap, (time_ps, self._seq, callback))
        self._seq += 1

    def call_after(self, delay_ps: int, callback: Callback) -> None:
        """Schedule ``callback`` to run ``delay_ps`` from now."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps}")
        self.call_at(self._now + delay_ps, callback)

    def call_at_many(self,
                     items: Iterable[tuple[int, Callback]]) -> None:
        """Batch-schedule ``(time_ps, callback)`` pairs.

        Equivalent to ``call_at`` per pair (same ordering guarantees:
        time-sorted, ties broken by position in ``items``), but pays the
        attribute/validation overhead once for the whole batch.  The
        periodic refresh scheduler uses this to arm a horizon of PREA+REF
        slots in one call instead of one wakeup per tREFI.
        """
        now = self._now
        heap = self._heap
        seq = self._seq
        push = heapq.heappush
        try:
            for time_ps, callback in items:
                if time_ps < now:
                    raise SimulationError(
                        f"cannot schedule into the past: {time_ps} < "
                        f"now {now}")
                push(heap, (time_ps, seq, callback))
                seq += 1
        finally:
            self._seq = seq

    def peek(self) -> int | None:
        """Timestamp of the next pending event, or None if queue is empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Execute the single next event.  Returns False if none remain."""
        if not self._heap:
            return False
        if self._fault_clock is not None:
            self._fault_clock.check(self._heap[0][0], "engine")
        time_ps, _seq, callback = heapq.heappop(self._heap)
        self._now = time_ps
        self.events_executed += 1
        callback()
        return True

    def run(self, until: int | None = None,
            max_events: int | None = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        When stopping at ``until`` the clock is advanced to exactly
        ``until`` even if no event lands there, so back-to-back ``run``
        calls observe a monotonic clock.

        The dispatch loop is inlined (rather than calling :meth:`step`)
        with the heap and ``heappop`` bound to locals: this is the single
        hottest loop in the simulator and the per-event attribute lookups
        were measurable.  Behaviour is identical to repeated ``step()``,
        except that ``events_executed`` is settled when the loop exits
        rather than per event (callbacks should not read it mid-run).
        """
        if self._running:
            raise SimulationError("engine is already running (reentrant run)")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        clock = self._fault_clock
        executed = 0
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                if clock is not None:
                    clock.check(heap[0][0], "engine")
                time_ps, _seq, callback = pop(heap)
                self._now = time_ps
                executed += 1
                callback()
        finally:
            self._running = False
            self.events_executed += executed
        if until is not None and self._now < until:
            self._now = until

    def drain(self) -> None:
        """Discard all pending events without running them."""
        self._heap.clear()

    @property
    def pending(self) -> int:
        """Number of callbacks still queued."""
        return len(self._heap)

    @property
    def running(self) -> bool:
        """True while inside :meth:`run` (reentrant calls are illegal)."""
        return self._running

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Engine(now={self._now}, pending={len(self._heap)})"
