"""Transaction-level NVMC: window-scheduled cachefill/writeback timing.

This model advances an operation through the §IV-C control flow on the
:class:`~repro.ddr.imc.RefreshTimeline`:

1. **Poll** — the device learns of a posted CP command in the first
   refresh window at or after the post (it "always polls the CP area
   every tRFC time").
2. **Media + DMA** — cachefill reads the NAND page then DMAs it into
   the DRAM slot in a later window; writeback DMAs the victim out of
   DRAM in a window and then programs NAND (the program continues in the
   background once the data is captured in the battery-backed buffer).
3. **Ack** — completion status is written into the CP area in a further
   window, where the driver's polling picks it up.

Between steps the firmware-lag model inserts the software processing
delay that §VII-C blames for the PoC running at 8.9 tREFI windows per
writeback+cachefill pair instead of the 6-window theoretical minimum.

Every byte of payload actually moves: cachefill deposits real NAND page
contents into the DRAM cache device, so the integrity experiments catch
any bookkeeping bug.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Protocol

from repro.ddr.device import DRAMDevice
from repro.ddr.imc import RefreshTimeline
from repro.errors import (CPProtocolError, DegradedModeError,
                          FaultInjectionError, MediaError)
from repro.nand.controller import NANDController
from repro.nvmc.cp import (OPCODE_NAMES, PHASE_NAMES, CPAck, CPArea,
                           CPCommand, Opcode, Phase, ack_word)
from repro.nvmc.dma import DMAEngine
from repro.nvmc.fsm import FirmwareModel, FSMTracker, NVMCState
from repro.sim.snapshot import SnapshotMixin
from repro.sim.trace import (MessageTemplate, Tracer, default_tracer,
                             next_owner)
from repro.units import CACHELINE, PAGE_4K

#: The fields of each entry of an ``nvmc.dma`` record's ``windows``, in
#: order.  A CP operation emits one ``nvmc.dma`` record carrying one
#: entry per refresh window it moved, in the order moved.
DMA_WINDOW_FIELDS = ("kind", "window", "bytes", "requested", "addr",
                     "win_start", "win_end", "end_ps")


class _CarriedTemplate(MessageTemplate):
    """An ``nvmc.dma`` message: the template rendered over each carried
    window's fields, joined by commas."""

    __slots__ = ()

    def format_map(self, fields) -> str:
        return ", ".join(
            str.format_map(self, dict(zip(DMA_WINDOW_FIELDS, entry)))
            for entry in fields["windows"])


#: Trace messages, rendered from the record's fields only when read.
_POSTED = MessageTemplate("{opcode} posted")
_DONE = MessageTemplate("{opcode} done")
_MOVED = _CarriedTemplate("{kind} {bytes}B in window {window}")


class OperationResult(NamedTuple):
    """Timing summary of one completed CP command."""

    opcode: Opcode
    submit_ps: int
    completion_ps: int
    windows_used: int
    nand_busy_ps: int
    #: Ack status published for this command (:class:`CPAck` constants),
    #: or :data:`NVMCModel.NO_ACK` when the device never saw a valid
    #: command word and therefore acknowledged nothing.
    status: int = CPAck.OK

    @property
    def latency_ps(self) -> int:
        return self.completion_ps - self.submit_ps


class InjectionClock(Protocol):
    """Duck type of :class:`repro.faults.clock.FaultClock` (layering:
    the device model must not import the faults package)."""

    def check(self, now_ps: int, site: str) -> None: ...


class CPFaultPort:
    """Deterministic device-side fault schedule for the CP exchange.

    Injectors arm the port before a workload runs; the NVMC consumes the
    schedules in submission order, so a given seed always corrupts the
    same commands.  Three independent queues:

    * **command faults** — the device's view of the posted 64-bit word is
      mangled in flight: ``"phase"`` makes the command look stale (the
      device ignores it, the driver times out), ``"opcode"`` decodes to
      garbage (the device acks ``DECODE_ERROR`` without touching media);
    * **ack drops** — the operation completes but the acknowledgement
      write is lost, so the driver times out and re-issues;
    * **DMA shortfalls** — the next page-sized window transfer moves
      that many bytes fewer than requested; the remainder is retried in
      a later refresh window.
    """

    _COMMAND_MODES = ("phase", "opcode")

    def __init__(self) -> None:
        self._command_faults: deque[str | None] = deque()
        self._ack_drops: deque[bool] = deque()
        self._dma_shortfalls: deque[int] = deque()
        self.commands_corrupted = 0
        self.acks_dropped = 0
        self.dma_shortfalls_applied = 0

    # -- arming (injector side) -----------------------------------------------

    def corrupt_command(self, mode: str, after: int = 0) -> None:
        """Mangle the ``after``-th next submitted command (0 = next)."""
        if mode not in self._COMMAND_MODES:
            raise FaultInjectionError(
                f"unknown CP corruption mode {mode!r}; "
                f"expected one of {self._COMMAND_MODES}")
        self._command_faults.extend([None] * after)
        self._command_faults.append(mode)

    def drop_ack(self, after: int = 0) -> None:
        """Suppress the ack of the ``after``-th next acked command."""
        self._ack_drops.extend([False] * after)
        self._ack_drops.append(True)

    def shorten_dma(self, shortfall_bytes: int, after: int = 0) -> None:
        """Withhold bytes from the ``after``-th next page DMA chunk."""
        if shortfall_bytes <= 0:
            raise FaultInjectionError(
                f"DMA shortfall must be positive: {shortfall_bytes}")
        self._dma_shortfalls.extend([0] * after)
        self._dma_shortfalls.append(shortfall_bytes)

    # -- consumption (device side) --------------------------------------------

    def pull_command_fault(self) -> str | None:
        if not self._command_faults:
            return None
        mode = self._command_faults.popleft()
        if mode is not None:
            self.commands_corrupted += 1
        return mode

    def pull_ack_drop(self) -> bool:
        if not self._ack_drops:
            return False
        drop = self._ack_drops.popleft()
        if drop:
            self.acks_dropped += 1
        return drop

    def pull_dma_shortfall(self) -> int:
        if not self._dma_shortfalls:
            return 0
        shortfall = self._dma_shortfalls.popleft()
        if shortfall:
            self.dma_shortfalls_applied += 1
        return shortfall

    @property
    def exhausted(self) -> bool:
        """True once every armed fault has been consumed."""
        return not (self._command_faults or self._ack_drops
                    or self._dma_shortfalls)


class NVMCModel(SnapshotMixin):
    """The device-side controller, at transaction granularity."""

    #: :attr:`OperationResult.status` when the device never published an
    #: acknowledgement (it could not see a valid command word).
    NO_ACK = -1

    def __init__(self, timeline: RefreshTimeline, nand: NANDController,
                 dram: DRAMDevice, slot_base: int = PAGE_4K * 2,
                 window_bytes: int = PAGE_4K,
                 firmware: FirmwareModel | None = None,
                 cp_queue_depth: int = 1,
                 tracer: Tracer | None = None,
                 health=None) -> None:
        self.timeline = timeline
        self.nand = nand
        self.dram = dram
        #: Shared :class:`repro.health.monitor.HealthMonitor`; defaults
        #: to the NAND controller's, so the driver (which reads
        #: ``nvmc.health``) and the media always agree on the ladder.
        self.health = health if health is not None \
            else getattr(nand, "health", None)
        self.slot_base = slot_base
        self.dma = DMAEngine(timeline.spec, window_bytes=window_bytes)
        self.firmware = firmware if firmware is not None else FirmwareModel()
        self.cp = CPArea(queue_depth=cp_queue_depth)
        self.fsm = FSMTracker()
        self.tracer = tracer if tracer is not None else default_tracer()
        self.trace_owner = next_owner("nvmc")
        #: Device serialisation point: the FSM handles one command at a
        #: time (the PoC's queue depth is one).
        self.ready_ps = 0
        self._phase = Phase.EVEN
        self._cmd_seq = 0
        #: Installed by fault campaigns; None on the (fast) clean path.
        self.faults: CPFaultPort | None = None
        self.fault_clock: InjectionClock | None = None

    # -- driver-facing API -------------------------------------------------------------

    def next_phase(self) -> Phase:
        """Toggle and return the phase for the next CP command."""
        self._phase = Phase.ODD if self._phase is Phase.EVEN else Phase.EVEN
        return self._phase

    def submit(self, command: CPCommand, submit_ps: int,
               slot: int = 0) -> OperationResult:
        """Post a CP command at ``submit_ps``; returns its timing.

        The caller (the nvdc driver) must already have flushed the CP
        cacheline — the kernel layer enforces that; this layer assumes a
        coherent CP view.

        Every operation is one flow: poll, the opcode's media work and
        DMA, ack.  Each window-bound step is one :meth:`_window` call.
        """
        self.cp.post(slot, command)
        self._cmd_seq += 1
        cmd_id = self._cmd_seq
        opcode = command.opcode
        opcode_name = OPCODE_NAMES[opcode]
        if self.tracer.enabled:
            self.tracer.emit(submit_ps, "cp.post", _POSTED,
                             owner=self.trace_owner, cmd=cmd_id, slot=slot,
                             opcode=opcode_name,
                             phase=PHASE_NAMES[command.phase],
                             depth=self.cp.queue_depth)
        start = max(submit_ps, self.ready_ps)
        fault = (self.faults.pull_command_fault()
                 if self.faults is not None else None)
        # The windows this op moves (``DMA_WINDOW_FIELDS`` entries), or
        # None when tracing is off.  A local, so snapshots never carry
        # it; an op cut short (a fault-clock power cut) still reports
        # the windows it moved.
        carried: list[tuple] | None = [] if self.tracer.enabled else None
        try:
            # The media work between poll and ack: none for NOP or a
            # mangled command word.
            if fault is not None or opcode is Opcode.NOP:
                media = None
            elif opcode is Opcode.CACHEFILL:
                media = self._cachefill
            elif opcode is Opcode.WRITEBACK:
                media = self._writeback
            elif opcode is Opcode.MERGED:
                media = self._merged
            else:
                raise CPProtocolError(f"unsupported opcode {opcode}")
            # Poll: the device learns of the command in the first window
            # at or after ``start``.  POLL_CP is reachable from ACK
            # (back-to-back commands) and IDLE; an op cut short left the
            # FSM elsewhere, and it must return to IDLE first.
            fsm = self.fsm
            if fsm.state not in (NVMCState.IDLE, NVMCState.ACK):
                fsm.transition(NVMCState.IDLE, start)
            end, windows = self._window(NVMCState.POLL_CP, start, CACHELINE,
                                        "poll", -1, carried)
            ready = self.firmware.ready_after(end)
            if fault == "phase":
                # The phase field arrived mangled: the device's poll
                # sees a word whose phase matches the last command,
                # concludes it is stale, and goes back to sleep.  One
                # poll window is burnt; no media work, no
                # acknowledgement — the driver times out.
                fsm.transition(NVMCState.IDLE, ready)
                result = OperationResult(opcode, submit_ps, ready, windows,
                                         0, self.NO_ACK)
            else:
                if media is not None:
                    ready, windows, nand_busy, status = media(
                        command, ready, windows, carried)
                elif fault == "opcode":
                    # The opcode field arrived mangled: the device
                    # decodes garbage and publishes DECODE_ERROR without
                    # touching media.
                    nand_busy, status = 0, CPAck.DECODE_ERROR
                else:
                    nand_busy, status = 0, CPAck.OK
                # Ack: publish the status into the CP area in a window.
                end, ack_windows = self._window(NVMCState.ACK, ready,
                                                CACHELINE, "ack", -1,
                                                carried)
                fsm.transition(NVMCState.IDLE, end)
                result = OperationResult(opcode, submit_ps, end,
                                         windows + ack_windows, nand_busy,
                                         status)
        finally:
            if carried:
                # Timed at the first window's ``win_start``.  The record
                # is self-describing for the sanitizers: each window's
                # bounds and the per-window byte budget, so observers
                # need no timeline of their own.
                self.tracer.emit(carried[0][5], "nvmc.dma", _MOVED,
                                 owner=self.trace_owner, cmd=cmd_id,
                                 budget=self.dma.window_bytes,
                                 windows=tuple(carried))
        if fault is not None and self.tracer.enabled:
            self.tracer.emit(result.completion_ps, "cp.fault",
                             f"{opcode_name} corrupted ({fault})",
                             owner=self.trace_owner, cmd=cmd_id, slot=slot,
                             opcode=opcode_name, mode=fault)
        if result.status != self.NO_ACK:
            dropped = (self.faults.pull_ack_drop()
                       if self.faults is not None else False)
            if dropped:
                # The operation ran, but the ack write was lost in
                # flight: the driver times out and re-issues.
                if self.tracer.enabled:
                    self.tracer.emit(result.completion_ps, "cp.fault",
                                     f"{opcode_name} ack dropped",
                                     owner=self.trace_owner, cmd=cmd_id,
                                     slot=slot, opcode=opcode_name,
                                     mode="ack-drop")
            else:
                self.cp.publish_ack(slot, ack_word(command.phase,
                                                   result.status))
                if self.tracer.enabled:
                    self.tracer.emit(result.completion_ps, "cp.ack", _DONE,
                                     owner=self.trace_owner, cmd=cmd_id,
                                     slot=slot, opcode=opcode_name,
                                     phase=PHASE_NAMES[command.phase],
                                     status=result.status)
        self.ready_ps = result.completion_ps
        return result

    # -- the window step -------------------------------------------------------------

    def _window(self, state: NVMCState, ready_ps: int, nbytes: int,
                kind: str, addr: int,
                carried: list | None) -> tuple[int, int]:
        """Enter ``state`` at ``ready_ps`` and move ``nbytes`` in the
        refresh windows from the first one at or after it; returns
        ``(completion time, windows consumed)``.

        The clean case is the loop's first pass: one transfer in one
        window, exactly the §IV-A contract.  An injected shortfall
        truncates a page-sized chunk and the remainder moves in the
        next window, so a further pass continues from the first.  Each
        chunk still respects the per-window byte budget, so the
        transfer stays legal from the sanitizers' point of view; it
        just takes longer.

        Each window moved is appended to ``carried`` (when tracing) as a
        :data:`DMA_WINDOW_FIELDS` entry, with the window bounds the
        transfer must respect.
        """
        self.fsm.transition(state, ready_ps)
        window = self.timeline.next_window(ready_ps)
        remaining = nbytes
        windows_used = 0
        while True:
            if self.fault_clock is not None:
                self.fault_clock.check(window.start_ps, f"nvmc.dma.{kind}")
            moved = remaining
            if self.faults is not None and kind in ("fill", "evict"):
                shortfall = self.faults.pull_dma_shortfall()
                moved = remaining - shortfall if shortfall < remaining else 0
            end = (self.dma.schedule(moved, window) if moved > 0
                   else window.start_ps)
            windows_used += 1
            if carried is not None:
                carried.append((kind, window.index, moved, remaining, addr,
                                window.start_ps, window.end_ps, end))
            remaining -= moved
            if remaining <= 0:
                return end, windows_used
            self.dma.stats.partial_transfers += 1
            if self.health is not None:
                self.health.record("nvmc", "dma-partial",
                                   time_ps=window.end_ps)
            window = self.timeline.next_window(window.end_ps)

    # -- media flows -----------------------------------------------------------------
    #
    # Each runs between the poll and the ack and returns ``(ack ready
    # time, windows consumed, NAND busy time, ack status)``.  A refused
    # or failed media operation skips the rest and acks at once.

    def _cachefill(self, command: CPCommand, ready_ps: int, windows: int,
                   carried: list | None) -> tuple[int, int, int, int]:
        # NAND page read (tR + channel transfer), then firmware arms DMA.
        self.fsm.transition(NVMCState.NAND_READ, ready_ps)
        if self.fault_clock is not None:
            self.fault_clock.check(ready_ps, "nvmc.cachefill.read")
        try:
            data, nand_end = self.nand.read_page(command.nand_page, ready_ps)
        except MediaError as exc:
            return self._refused(exc, ready_ps, windows)
        if data is None:
            data = bytes(PAGE_4K)   # never-written page reads as zeros
        # DMA the page into the DRAM cache slot inside a window.
        addr = self._slot_addr(command.dram_slot)
        end, fill_windows = self._window(
            NVMCState.DRAM_WRITE, self.firmware.ready_after(nand_end),
            PAGE_4K, "fill", addr, carried)
        self.dram.poke(addr, data)
        return (self.firmware.ready_after(end), windows + fill_windows,
                nand_end - ready_ps, CPAck.OK)

    def _writeback(self, command: CPCommand, ready_ps: int, windows: int,
                   carried: list | None) -> tuple[int, int, int, int]:
        # DMA the victim page out of the DRAM cache inside a window.
        addr = self._slot_addr(command.dram_slot)
        end, evict_windows = self._window(NVMCState.DRAM_READ, ready_ps,
                                          PAGE_4K, "evict", addr, carried)
        data = self.dram.peek(addr, PAGE_4K)
        windows += evict_windows
        # Program NAND; the data sits in the battery-backed buffer, so
        # the ack does not wait for the program to finish — but the
        # channel stays busy, which throttles sustained writebacks.
        self.fsm.transition(NVMCState.NAND_PROGRAM, end)
        if self.fault_clock is not None:
            self.fault_clock.check(end, "nvmc.writeback.program")
        try:
            nand_end = self.nand.program_page(command.nand_page, data, end)
        except MediaError as exc:
            return self._refused(exc, end, windows)
        return (self.firmware.ready_after(end), windows, nand_end - end,
                CPAck.OK)

    def _merged(self, command: CPCommand, ready_ps: int, windows: int,
                carried: list | None) -> tuple[int, int, int, int]:
        """Future-work item (4): independent WB+fill in one command.

        The NAND read for the fill overlaps the victim DMA-out and the
        NAND program runs on the other channel; one poll and one ack are
        amortised over both halves.
        """
        # Window A: victim out of DRAM; NAND read proceeds in parallel.
        wb_addr = self._slot_addr(command.wb_dram_slot)
        wb_end, evict_windows = self._window(NVMCState.DRAM_READ, ready_ps,
                                             PAGE_4K, "evict", wb_addr,
                                             carried)
        victim = self.dram.peek(wb_addr, PAGE_4K)
        windows += evict_windows
        self.fsm.transition(NVMCState.NAND_PROGRAM, wb_end)
        if self.fault_clock is not None:
            self.fault_clock.check(wb_end, "nvmc.writeback.program")
        try:
            prog_end = self.nand.program_page(command.wb_nand_page, victim,
                                              wb_end)
            self.fsm.transition(NVMCState.NAND_READ, wb_end)
            if self.fault_clock is not None:
                self.fault_clock.check(wb_end, "nvmc.cachefill.read")
            data, read_end = self.nand.read_page(command.nand_page, ready_ps)
        except MediaError as exc:
            return self._refused(exc, wb_end, windows)
        if data is None:
            data = bytes(PAGE_4K)
        # Window B: fill data into the (just vacated) DRAM slot.
        addr = self._slot_addr(command.dram_slot)
        end, fill_windows = self._window(
            NVMCState.DRAM_WRITE,
            self.firmware.ready_after(max(wb_end, read_end)), PAGE_4K,
            "fill", addr, carried)
        self.dram.poke(addr, data)
        return (self.firmware.ready_after(end), windows + fill_windows,
                max(prog_end, read_end) - ready_ps, CPAck.OK)

    def _refused(self, exc: MediaError, fail_ps: int,
                 windows: int) -> tuple[int, int, int, int]:
        """The ack of a media operation that failed at ``fail_ps``.

        Degraded media acks DEGRADED (the 4-bit status cannot say more;
        the driver pulls the machine-readable reason from the shared
        health monitor), any other media failure MEDIA_ERROR.
        """
        status = (CPAck.DEGRADED if isinstance(exc, DegradedModeError)
                  else CPAck.MEDIA_ERROR)
        return self.firmware.ready_after(fail_ps), windows, 0, status

    # -- helpers ----------------------------------------------------------------------------

    def _slot_addr(self, slot_id: int) -> int:
        """DRAM byte address of a cache slot."""
        return self.slot_base + slot_id * PAGE_4K
