"""The host integrated memory controller (iMC) and the refresh timeline.

Two responsibilities:

* **Refresh scheduling.**  The iMC issues PREA + REF every tREFI and then
  keeps off the bus for its *programmed* tRFC (§II-B).  With NVDIMM-C the
  programmed tRFC is extended past the JEDEC device requirement, and the
  gap — ``[REF + tRFC_device, REF + tRFC_programmed)`` — is the window in
  which the NVMC may drive the shared bus.  :class:`RefreshTimeline`
  captures this arithmetic in one deterministic object shared by the
  command-accurate simulation and the fast transaction-level models, so a
  tREFI/tRFC sweep moves every layer consistently.

* **Host accesses.**  CPU loads/stores that miss the LLC arrive here; the
  iMC stalls them while a refresh owns the channel, otherwise hands them
  to its embedded :class:`~repro.ddr.controller.DDR4Controller`.

The iMC also models the **write pending queue** (WPQ), the uncore buffer
that defines the platform persistence domain in §V-C.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import NamedTuple

from repro.ddr.bus import SharedBus
from repro.ddr.controller import DDR4Controller
from repro.ddr.spec import DDR4Spec
from repro.errors import ConfigError
from repro.sim.engine import Engine
from repro.sim.snapshot import SnapshotMixin
from repro.sim.trace import Tracer, default_tracer, next_owner


class RefreshWindow(NamedTuple):
    """One device-access opportunity behind a REFRESH command."""

    index: int
    refresh_ps: int     # REF command time
    start_ps: int       # REF + tRFC_device: DRAM is usable again
    end_ps: int         # REF + tRFC_programmed: host resumes

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps


class RefreshTimeline:
    """Deterministic arithmetic over the periodic refresh schedule.

    REF commands are issued at ``offset + k * tREFI``; the host is blocked
    ``[REF - tRP, REF + tRFC_programmed)`` (PREA precedes REF, Fig. 2b);
    the device window is ``[REF + tRFC_device, REF + tRFC_programmed)``.
    """

    def __init__(self, spec: DDR4Spec, offset_ps: int | None = None) -> None:
        spec.validate()
        self.spec = spec
        self.trefi_ps = spec.trefi_ps
        self.trfc_programmed_ps = spec.trfc_ps
        self.trfc_device_ps = spec.trfc_device_ps
        self.offset_ps = spec.trefi_ps if offset_ps is None else offset_ps

    def refresh_time(self, index: int) -> int:
        """REF command time of refresh ``index`` (0-based)."""
        return self.offset_ps + index * self.trefi_ps

    def window(self, index: int) -> RefreshWindow:
        """The device-access window behind refresh ``index``."""
        ref = self.refresh_time(index)
        return RefreshWindow(index, ref,
                             ref + self.trfc_device_ps,
                             ref + self.trfc_programmed_ps)

    def index_at_or_after(self, time_ps: int) -> int:
        """Smallest refresh index whose REF time is >= ``time_ps``."""
        if time_ps <= self.offset_ps:
            return 0
        return -(-(time_ps - self.offset_ps) // self.trefi_ps)

    def next_window(self, time_ps: int) -> RefreshWindow:
        """First window whose usable interval starts at or after ``time_ps``.

        If ``time_ps`` falls inside a window's usable interval, that
        window is *not* returned — callers who can still use the current
        window should call :meth:`window_containing` first.  This mirrors
        the NVMC firmware, which arms a transfer only for a window it can
        use from its very start.

        The window is that of the first REF at or after ``time_ps -
        tRFC_device`` (:meth:`index_at_or_after`, inlined), built
        without the Python-level ``__new__`` a NamedTuple generates:
        the NVMC asks for three windows per CP operation.
        """
        device_ps = self.trfc_device_ps
        late_ps = time_ps - device_ps - self.offset_ps
        index = -(-late_ps // self.trefi_ps) if late_ps > 0 else 0
        ref = self.offset_ps + index * self.trefi_ps
        return tuple.__new__(RefreshWindow, (index, ref, ref + device_ps,
                                             ref + self.trfc_programmed_ps))

    def window_containing(self, time_ps: int) -> RefreshWindow | None:
        """The window whose usable interval contains ``time_ps``, if any."""
        if self.trfc_programmed_ps <= self.trfc_device_ps:
            return None
        index = (time_ps - self.offset_ps) // self.trefi_ps
        if index < 0:
            return None
        window = self.window(index)
        if window.start_ps <= time_ps < window.end_ps:
            return window
        return None

    def host_blocked_until(self, time_ps: int) -> int:
        """If the host is refresh-blocked at ``time_ps``, when it frees.

        Returns ``time_ps`` itself when the host may issue immediately.
        The blocked span covers the PREA lead-in as well.
        """
        index = (time_ps + self.spec.trp_ps - self.offset_ps) // self.trefi_ps
        for i in (index, index + 1):
            if i < 0:
                continue
            ref = self.refresh_time(i)
            if ref - self.spec.trp_ps <= time_ps < ref + self.trfc_programmed_ps:
                return ref + self.trfc_programmed_ps
        return time_ps

    @property
    def blocked_fraction(self) -> float:
        """Fraction of channel time the host loses to refresh."""
        return (self.trfc_programmed_ps + self.spec.trp_ps) / self.trefi_ps

    @property
    def window_duration_ps(self) -> int:
        """Usable device window length per refresh."""
        return max(0, self.trfc_programmed_ps - self.trfc_device_ps)


class WritePendingQueue:
    """The iMC's WPQ: last stop before data reaches the DRAM pins.

    On Intel platforms the platform persistence domain (ADR) flushes the
    WPQ on power failure; §V-C explains why NVDIMM-C's effective domain
    shrinks to the DRAM cache because the device drain runs concurrently
    with the platform flush.  The model keeps the queue contents visible
    so the power-failure experiment can reproduce that race.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self.entries: deque[tuple[int, bytes]] = deque()
        self.total_enqueued = 0
        self.total_drained = 0

    def enqueue(self, addr: int, data: bytes) -> list[tuple[int, bytes]]:
        """Add a write; returns entries force-drained by capacity."""
        drained: list[tuple[int, bytes]] = []
        while len(self.entries) >= self.capacity:
            drained.append(self.entries.popleft())
            self.total_drained += 1
        self.entries.append((addr, data))
        self.total_enqueued += 1
        return drained

    def drain(self) -> list[tuple[int, bytes]]:
        """Flush everything (sfence/ADR); returns the drained writes."""
        drained = list(self.entries)
        self.total_drained += len(drained)
        self.entries.clear()
        return drained

    def __len__(self) -> int:
        return len(self.entries)


class IntegratedMemoryController(SnapshotMixin):
    """Host-side master on the shared bus.

    ``start_refresh_process`` spawns the periodic PREA+REF loop on a DES
    engine; experiments that only need the arithmetic use ``timeline``
    directly.  The timing registers are mutable before the process starts
    (the BIOS path) — reprogramming mid-run is rejected, matching how the
    real registers are applied at memory-training time.
    """

    def __init__(self, engine: Engine, spec: DDR4Spec, bus: SharedBus,
                 name: str = "iMC", tracer: Tracer | None = None) -> None:
        self.engine = engine
        self.spec = spec
        self.bus = bus
        self.name = name
        self.tracer = tracer if tracer is not None else default_tracer()
        self.trace_owner = next_owner(name)
        self.controller = DDR4Controller(name, spec, bus)
        self.timeline = RefreshTimeline(spec)
        self.wpq = WritePendingQueue()
        self.refreshes_issued = 0
        self._refresh_process: _RefreshScheduler | None = None

    # -- BIOS / kernel-programmable registers (§II-B) ------------------------------

    def program_timing(self, trfc_ps: int | None = None,
                       trefi_ps: int | None = None) -> None:
        """Reprogram tRFC/tREFI registers (boot-time only)."""
        if self._refresh_process is not None:
            raise ConfigError(
                "timing registers are applied at memory training; "
                "stop the refresh process before reprogramming")
        spec = self.spec
        if trfc_ps is not None:
            spec = spec.with_extended_trfc(trfc_ps)
        if trefi_ps is not None:
            spec = spec.with_trefi(trefi_ps)
        self.spec = spec
        self.controller.spec = spec
        self.timeline = RefreshTimeline(spec)

    # -- refresh loop ------------------------------------------------------------------

    #: Refreshes armed per batch by the scheduler.  One wakeup per batch
    #: instead of one per tREFI; REF times are distinct (tREFI apart), so
    #: heap order — and therefore the simulation — is unchanged.
    REFRESH_BATCH = 64

    def start_refresh_process(self) -> "_RefreshScheduler":
        """Start the periodic refresh loop on the engine."""
        if self._refresh_process is not None:
            return self._refresh_process
        self._refresh_process = _RefreshScheduler(self)
        self.engine.call_after(0, self._refresh_process)
        return self._refresh_process

    def issue_refresh(self, index: int) -> None:
        """PREA then REF at the timeline's scheduled instant (Fig. 2b)."""
        ref_ps = self.timeline.refresh_time(index)
        self.controller.precharge_all(ref_ps - self.spec.trp_ps)
        self.controller.refresh(ref_ps)
        self.controller.forget_open_rows()
        self.refreshes_issued += 1
        self.tracer.emit(ref_ps, "imc.refresh", "REF issued",
                         owner=self.trace_owner, index=index)

    # -- host transfers ---------------------------------------------------------------

    def host_read(self, addr: int, nbytes: int,
                  start_ps: int) -> tuple[bytes, int]:
        """Read for the CPU side, stalling through refresh blackouts."""
        t = self._safe_start(start_ps, nbytes)
        return self.controller.read(addr, nbytes, t)

    def host_write(self, addr: int, data: bytes, start_ps: int) -> int:
        """Write for the CPU side via the WPQ."""
        t = self._safe_start(start_ps, len(data))
        self.wpq.enqueue(addr, data)
        end_ps = self.controller.write(addr, data, t)
        # The write has reached the array; retire it from the WPQ model.
        if self.wpq.entries and self.wpq.entries[0][0] == addr:
            self.wpq.entries.popleft()
            self.wpq.total_drained += 1
        return end_ps

    def _safe_start(self, start_ps: int, nbytes: int) -> int:
        """Start time at which a whole transfer fits before the next
        refresh lead-in.

        Real memory controllers interleave refreshes between individual
        column commands; this model issues a transfer's command burst
        atomically, so it must not *straddle* the PREA+REF slots.  The
        worst-case duration assumes a row switch per burst.  The engine
        is advanced to the chosen start so REFRESH commands hit the bus
        in chronological order relative to host traffic.
        """
        t = max(start_ps, self.controller.busy_until_ps)
        spec = self.spec
        bursts = -(-nbytes // spec.burst_bytes)
        worst = (spec.trcd_ps + spec.tcl_ps
                 + bursts * (spec.trp_ps + spec.trcd_ps + spec.tccd_ps))
        for _ in range(4):   # at most a few deferrals
            t = self.timeline.host_blocked_until(t)
            next_ref = self.timeline.refresh_time(
                self.timeline.index_at_or_after(t))
            if t + worst <= next_ref - spec.trp_ps:
                break
            t = next_ref + self.timeline.trfc_programmed_ps
        if not self.engine.running:
            self.engine.run(until=t)
        return t


class _RefreshScheduler:
    """Self-rescheduling batch armer behind ``start_refresh_process``.

    Replaces the generator process the loop used to run on: a suspended
    generator frame cannot be pickled, and the refresh loop must ride
    along when :mod:`repro.sim.snapshot` captures a protocol stack
    mid-run.  The whole loop state is one integer (the next refresh
    index), so the object round-trips through a snapshot and resumes
    arming exactly where the golden run left off.

    Event ordering is identical to the process version: each wakeup
    pushes the next ``REFRESH_BATCH`` PREA+REF slots via
    ``Engine.call_at_many`` and then schedules its own next wakeup, so
    at equal timestamps the REF callbacks (queued first) still dispatch
    before the re-arm.  ``issue_refresh`` derives all command times
    from the timeline, so a late wakeup simply issues the overdue
    refresh immediately.
    """

    __slots__ = ("imc", "index")

    def __init__(self, imc: IntegratedMemoryController) -> None:
        self.imc = imc
        self.index = 0

    def __call__(self) -> None:
        imc = self.imc
        engine = imc.engine
        now = engine.now
        trp_ps = imc.spec.trp_ps
        items = []
        for i in range(self.index, self.index + imc.REFRESH_BATCH):
            prea_ps = imc.timeline.refresh_time(i) - trp_ps
            items.append((max(prea_ps, now), partial(imc.issue_refresh, i)))
        engine.call_at_many(items)
        self.index += imc.REFRESH_BATCH
        engine.call_after(max(0, items[-1][0] - now), self)
