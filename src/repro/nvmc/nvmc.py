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
from repro.ddr.imc import RefreshTimeline, RefreshWindow
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
        """
        self.cp.post(slot, command)
        self._cmd_seq += 1
        cmd_id = self._cmd_seq
        opcode_name = OPCODE_NAMES[command.opcode]
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
            if fault == "phase":
                # The phase field arrived mangled: the device's poll
                # sees a word whose phase matches the last command,
                # concludes it is stale, and goes back to sleep.  One
                # poll window is burnt; no media work, no
                # acknowledgement — the driver times out.
                ready, windows = self._poll(start, carried)
                self._fsm_to(NVMCState.IDLE, ready)
                result = OperationResult(command.opcode, submit_ps, ready,
                                         windows, 0, status=self.NO_ACK)
            elif fault == "opcode":
                # The opcode field arrived mangled: the device decodes
                # garbage and publishes DECODE_ERROR without touching
                # media.
                ready, windows = self._poll(start, carried)
                end, ack_windows = self._ack(ready, carried)
                result = OperationResult(command.opcode, submit_ps, end,
                                         windows + ack_windows, 0,
                                         status=CPAck.DECODE_ERROR)
            elif command.opcode is Opcode.CACHEFILL:
                result = self._run_cachefill(command, submit_ps, start,
                                             carried)
            elif command.opcode is Opcode.WRITEBACK:
                result = self._run_writeback(command, submit_ps, start,
                                             carried)
            elif command.opcode is Opcode.MERGED:
                result = self._run_merged(command, submit_ps, start,
                                          carried)
            elif command.opcode is Opcode.NOP:
                result = self._run_nop(command, submit_ps, start, carried)
            else:
                raise CPProtocolError(
                    f"unsupported opcode {command.opcode}")
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

    # -- operation flows ---------------------------------------------------------------

    def _poll(self, start_ps: int,
              carried: list | None) -> tuple[int, int]:
        """The CP-poll step; returns (poll end, windows consumed)."""
        self._fsm_to(NVMCState.POLL_CP, start_ps)
        window = self.timeline.next_window(start_ps)
        end, windows = self._dma_window(CACHELINE, window, "poll", carried)
        return self.firmware.ready_after(end), windows

    def _ack(self, ready_ps: int, carried: list | None) -> tuple[int, int]:
        """The ack-publish step; returns (ack end, windows consumed)."""
        self._fsm_to(NVMCState.ACK, ready_ps)
        window = self.timeline.next_window(ready_ps)
        end, windows = self._dma_window(CACHELINE, window, "ack", carried)
        self._fsm_to(NVMCState.IDLE, end)
        return end, windows

    def _media_error_ack(self, opcode: Opcode, submit_ps: int,
                         fail_ps: int, windows: int,
                         carried: list | None) -> OperationResult:
        """Publish-path for a failed media operation: ack MEDIA_ERROR."""
        ready = self.firmware.ready_after(fail_ps)
        end, ack_windows = self._ack(ready, carried)
        return OperationResult(opcode, submit_ps, end,
                               windows + ack_windows, 0,
                               status=CPAck.MEDIA_ERROR)

    def _degraded_ack(self, opcode: Opcode, submit_ps: int,
                      fail_ps: int, windows: int,
                      carried: list | None) -> OperationResult:
        """Publish-path for an operation the degraded media refused.

        The 4-bit ack status can only say DEGRADED; the driver pulls
        the machine-readable reason from the shared health monitor.
        """
        ready = self.firmware.ready_after(fail_ps)
        end, ack_windows = self._ack(ready, carried)
        return OperationResult(opcode, submit_ps, end,
                               windows + ack_windows, 0,
                               status=CPAck.DEGRADED)

    def _run_cachefill(self, command: CPCommand, submit_ps: int,
                       start_ps: int,
                       carried: list | None) -> OperationResult:
        ready, windows = self._poll(start_ps, carried)
        # NAND page read (tR + channel transfer), then firmware arms DMA.
        self._fsm_to(NVMCState.NAND_READ, ready)
        self._clock(ready, "nvmc.cachefill.read")
        try:
            data, nand_end = self.nand.read_page(command.nand_page, ready)
        except DegradedModeError:
            return self._degraded_ack(Opcode.CACHEFILL, submit_ps,
                                      ready, windows, carried)
        except MediaError:
            return self._media_error_ack(Opcode.CACHEFILL, submit_ps,
                                         ready, windows, carried)
        nand_busy = nand_end - ready
        if data is None:
            data = bytes(PAGE_4K)   # never-written page reads as zeros
        ready = self.firmware.ready_after(nand_end)
        # DMA the page into the DRAM cache slot inside a window.
        self._fsm_to(NVMCState.DRAM_WRITE, ready)
        window = self.timeline.next_window(ready)
        end, fill_windows = self._dma_window(
            PAGE_4K, window, "fill", carried,
            addr=self._slot_addr(command.dram_slot))
        self.dram.poke(self._slot_addr(command.dram_slot), data)
        windows += fill_windows
        ready = self.firmware.ready_after(end)
        end, ack_windows = self._ack(ready, carried)
        return OperationResult(Opcode.CACHEFILL, submit_ps, end,
                               windows + ack_windows, nand_busy)

    def _run_writeback(self, command: CPCommand, submit_ps: int,
                       start_ps: int,
                       carried: list | None) -> OperationResult:
        ready, windows = self._poll(start_ps, carried)
        # DMA the victim page out of the DRAM cache inside a window.
        self._fsm_to(NVMCState.DRAM_READ, ready)
        window = self.timeline.next_window(ready)
        end, evict_windows = self._dma_window(
            PAGE_4K, window, "evict", carried,
            addr=self._slot_addr(command.dram_slot))
        data = self.dram.peek(self._slot_addr(command.dram_slot), PAGE_4K)
        windows += evict_windows
        # Program NAND; the data sits in the battery-backed buffer, so
        # the ack does not wait for the program to finish — but the
        # channel stays busy, which throttles sustained writebacks.
        self._fsm_to(NVMCState.NAND_PROGRAM, end)
        self._clock(end, "nvmc.writeback.program")
        try:
            nand_end = self.nand.program_page(command.nand_page, data, end)
        except DegradedModeError:
            return self._degraded_ack(Opcode.WRITEBACK, submit_ps,
                                      end, windows, carried)
        except MediaError:
            return self._media_error_ack(Opcode.WRITEBACK, submit_ps,
                                         end, windows, carried)
        nand_busy = nand_end - end
        ready = self.firmware.ready_after(end)
        end, ack_windows = self._ack(ready, carried)
        return OperationResult(Opcode.WRITEBACK, submit_ps, end,
                               windows + ack_windows, nand_busy)

    def _run_merged(self, command: CPCommand, submit_ps: int,
                    start_ps: int,
                    carried: list | None) -> OperationResult:
        """Future-work item (4): independent WB+fill in one command.

        The NAND read for the fill overlaps the victim DMA-out and the
        NAND program runs on the other channel; one poll and one ack are
        amortised over both halves.
        """
        ready, windows = self._poll(start_ps, carried)
        # Window A: victim out of DRAM; NAND read proceeds in parallel.
        self._fsm_to(NVMCState.DRAM_READ, ready)
        window = self.timeline.next_window(ready)
        wb_end, evict_windows = self._dma_window(
            PAGE_4K, window, "evict", carried,
            addr=self._slot_addr(command.wb_dram_slot))
        victim = self.dram.peek(self._slot_addr(command.wb_dram_slot),
                                PAGE_4K)
        windows += evict_windows
        self._fsm_to(NVMCState.NAND_PROGRAM, wb_end)
        self._clock(wb_end, "nvmc.writeback.program")
        try:
            prog_end = self.nand.program_page(command.wb_nand_page, victim,
                                              wb_end)
            self._fsm_to(NVMCState.NAND_READ, wb_end)
            self._clock(wb_end, "nvmc.cachefill.read")
            data, read_end = self.nand.read_page(command.nand_page, ready)
        except DegradedModeError:
            return self._degraded_ack(Opcode.MERGED, submit_ps,
                                      wb_end, windows, carried)
        except MediaError:
            return self._media_error_ack(Opcode.MERGED, submit_ps,
                                         wb_end, windows, carried)
        if data is None:
            data = bytes(PAGE_4K)
        nand_busy = max(prog_end, read_end) - ready
        ready = self.firmware.ready_after(max(wb_end, read_end))
        # Window B: fill data into the (just vacated) DRAM slot.
        self._fsm_to(NVMCState.DRAM_WRITE, ready)
        window = self.timeline.next_window(ready)
        end, fill_windows = self._dma_window(
            PAGE_4K, window, "fill", carried,
            addr=self._slot_addr(command.dram_slot))
        self.dram.poke(self._slot_addr(command.dram_slot), data)
        windows += fill_windows
        ready = self.firmware.ready_after(end)
        end, ack_windows = self._ack(ready, carried)
        return OperationResult(Opcode.MERGED, submit_ps, end,
                               windows + ack_windows, nand_busy)

    def _run_nop(self, command: CPCommand, submit_ps: int,
                 start_ps: int, carried: list | None) -> OperationResult:
        ready, windows = self._poll(start_ps, carried)
        end, ack_windows = self._ack(ready, carried)
        return OperationResult(Opcode.NOP, submit_ps, end,
                               windows + ack_windows, 0)

    # -- helpers ----------------------------------------------------------------------------

    def _clock(self, now_ps: int, site: str) -> None:
        """Consult the fault clock (power loss) at a hook site."""
        if self.fault_clock is not None:
            self.fault_clock.check(now_ps, site)

    def _dma_window(self, nbytes: int, window: RefreshWindow, kind: str,
                    carried: list | None,
                    addr: int = -1) -> tuple[int, int]:
        """Move ``nbytes`` through refresh windows; returns
        ``(completion time, windows consumed)``.

        The clean path is one transfer in one window, exactly the §IV-A
        contract.  An injected shortfall truncates a page-sized chunk;
        the remainder is retried in the next window — each chunk still
        respects the per-window byte budget, so the transfer stays legal
        from the sanitizers' point of view, it just takes longer.

        Each window moved is appended to ``carried`` (when tracing) as a
        :data:`DMA_WINDOW_FIELDS` entry, with the window bounds the
        transfer must respect.
        """
        remaining = nbytes
        windows_used = 0
        end = window.start_ps
        while True:
            if self.fault_clock is not None:
                self._clock(window.start_ps, f"nvmc.dma.{kind}")
            shortfall = 0
            if self.faults is not None and kind in ("fill", "evict"):
                shortfall = self.faults.pull_dma_shortfall()
            moved = max(0, remaining - shortfall)
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

    def _slot_addr(self, slot_id: int) -> int:
        """DRAM byte address of a cache slot."""
        return self.slot_base + slot_id * PAGE_4K

    def _fsm_to(self, state: NVMCState, time_ps: int) -> None:
        # POLL_CP is reachable from ACK (back-to-back commands) and IDLE.
        if state is NVMCState.POLL_CP and self.fsm.state not in (
                NVMCState.IDLE, NVMCState.ACK):
            self.fsm.transition(NVMCState.IDLE, time_ps)
        self.fsm.transition(state, time_ps)
