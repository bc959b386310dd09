"""The allocation-light CP exchange against the implementation it replaced.

Every DRAM-cache miss is a WRITEBACK + CACHEFILL pair of section IV-C
CP exchanges.  The exchange used to build frozen dataclasses for every
refresh window, command, ack and result, decode stored CP words again
to read one phase bit, and read ``Enum.name`` for every trace field.
The classes below are that implementation, kept verbatim as the
reference oracle: ``CPCommand``, ``CPAck``, ``CPArea``,
``OperationResult`` and ``NVMCModel`` from ``repro.nvmc``, and
``RefreshWindow``, ``RefreshTimeline.next_window`` and
``DRAMDevice.decode``/``peek``/``poke`` from ``repro.ddr`` (the methods
as overrides on subclasses of the live classes).

A hypothesis property drives both models through the same random
operation sequence: all four opcodes plus the unsupported
FLUSH_METADATA, back-to-back and idle submit gaps, posts that forget to
toggle the phase, ack clears, ``CPFaultPort`` phase/opcode corruption,
ack drops and DMA shortfalls, with or without a fault clock that
records every ``check``.  It requires equal results (value, field names
and repr), raised errors, ack and command polls, trace records (time,
category, fields in order, rendered text), FSM state, DMA stats, CP
words, DRAM bytes and fault-clock ``(time, site)`` visits.

The one trace difference is deliberate: the oracle emits an ``nvmc.dma``
record per refresh window, the live model one per CP operation carrying
those windows.  Each live ``nvmc.dma`` record is expanded into one
record per carried window, which must equal the oracle's record in time
and fields; the live record is timed at its first window and its text
is the oracle's texts joined by commas.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddr import imc as live_imc
from repro.ddr.device import AddressParts, DRAMDevice
from repro.ddr.imc import RefreshTimeline
from repro.ddr.spec import NVDIMMC_1600
from repro.errors import (CPProtocolError, DegradedModeError, DeviceError,
                          MediaError, ProtocolError)
from repro.nand.controller import NANDController
from repro.nand.spec import ZNANDSpec
from repro.nvmc import cp as live_cp
from repro.nvmc import nvmc as live
from repro.nvmc.cp import Opcode, Phase
from repro.nvmc.dma import DMAEngine
from repro.nvmc.fsm import FirmwareModel, FSMTracker, NVMCState
from repro.nvmc.nvmc import CPFaultPort, InjectionClock
from repro.sim.snapshot import SnapshotMixin
from repro.sim.trace import (MessageTemplate, Tracer, default_tracer,
                             next_owner)
from repro.units import CACHELINE, PAGE_4K, kb, mb, us

# -- the replaced implementation, verbatim: the oracle ------------------------

_PHASE_SHIFT = 60
_OPCODE_SHIFT = 56
_SLOT_SHIFT = 28
_SLOT_MASK = (1 << 28) - 1
_PAGE_MASK = (1 << 28) - 1

_POSTED = MessageTemplate("{opcode} posted")
_DONE = MessageTemplate("{opcode} done")
_MOVED = MessageTemplate("{kind} {bytes}B in window {window}")


@dataclass(frozen=True)
class CPCommand:
    """A decoded CP command."""

    phase: Phase
    opcode: Opcode
    dram_slot: int = 0
    nand_page: int = 0
    # MERGED carries a second (writeback) pair in the adjacent word on
    # real hardware; the model carries it inline.
    wb_dram_slot: int = 0
    wb_nand_page: int = 0

    def encode(self) -> int:
        """Pack into the 64-bit CP word."""
        if not 0 <= self.dram_slot <= _SLOT_MASK:
            raise CPProtocolError("DRAM_Slot_ID out of field: "
                                  f"{self.dram_slot}")
        if not 0 <= self.nand_page <= _PAGE_MASK:
            raise CPProtocolError("NAND_Page_ID out of field: "
                                  f"{self.nand_page}")
        return ((int(self.phase) << _PHASE_SHIFT)
                | (int(self.opcode) << _OPCODE_SHIFT)
                | (self.dram_slot << _SLOT_SHIFT)
                | self.nand_page)

    @staticmethod
    def decode(word: int) -> "CPCommand":
        """Unpack a 64-bit CP word."""
        phase = Phase((word >> _PHASE_SHIFT) & 0xF)
        opcode_bits = (word >> _OPCODE_SHIFT) & 0xF
        try:
            opcode = Opcode(opcode_bits)
        except ValueError as exc:
            raise CPProtocolError(f"unknown opcode {opcode_bits}") from exc
        return CPCommand(phase=phase, opcode=opcode,
                         dram_slot=(word >> _SLOT_SHIFT) & _SLOT_MASK,
                         nand_page=word & _PAGE_MASK)


@dataclass(frozen=True)
class CPAck:
    """Device acknowledgement: echoes the phase, carries a status."""

    phase: Phase
    status: int = 0          # 0 = OK

    OK = 0
    MEDIA_ERROR = 1
    #: The device polled a word it could not decode (corrupted opcode
    #: bits); no operation was performed.  The driver re-issues.
    DECODE_ERROR = 2
    #: The device refused the operation because it is in a degraded
    #: mode (read-only or fail-stop).  Retrying is pointless; the
    #: driver consults the health monitor for the reason.
    DEGRADED = 3

    def encode(self) -> int:
        return (int(self.phase) << 4) | (self.status & 0xF)

    @staticmethod
    def decode(word: int) -> "CPAck":
        return CPAck(phase=Phase((word >> 4) & 0xF), status=word & 0xF)


class CPArea:
    """The 4 KB CP page: command slots + acknowledgement slots.

    Slot ``i``'s command lives at cacheline ``i``; its ack lives at
    cacheline ``queue_depth + i``.  The PoC uses ``queue_depth=1`` and
    "does not use the remaining memory space of 4 KB" (§VII-C).
    """

    def __init__(self, queue_depth: int = 1) -> None:
        if queue_depth < 1 or queue_depth * 2 * CACHELINE > PAGE_4K:
            raise CPProtocolError(
                f"queue depth {queue_depth} does not fit the 4 KB CP area")
        self.queue_depth = queue_depth
        self._commands: list[int] = [0] * queue_depth
        # None = never acknowledged; real hardware reserves a status code.
        self._acks: list[int | None] = [None] * queue_depth
        self.commands_posted = 0

    def post(self, slot: int, command: CPCommand) -> None:
        """Driver side: write a command word (after cache flush)."""
        self._check_slot(slot)
        previous = CPCommand.decode(self._commands[slot]) \
            if self._commands[slot] else None
        if previous is not None and previous.phase == command.phase:
            raise CPProtocolError(
                "phase did not toggle; device cannot see a new command")
        self._commands[slot] = command.encode()
        self.commands_posted += 1

    def poll_command(self, slot: int, last_phase: Phase | None) -> \
            CPCommand | None:
        """Device side: a new command if the phase toggled, else None."""
        self._check_slot(slot)
        word = self._commands[slot]
        if word == 0:
            return None
        command = CPCommand.decode(word)
        if last_phase is not None and command.phase == last_phase:
            return None
        return command

    def ack(self, slot: int, ack: CPAck) -> None:
        """Device side: publish completion status."""
        self._check_slot(slot)
        self._acks[slot] = ack.encode()

    def clear_ack(self, slot: int) -> None:
        """Driver side: poison the ack word before re-posting a command.

        The phase field is one bit, so the ack of command N-1 carries the
        same phase as command N+1; a driver that re-issues after a lost
        ack must clear the ack area first or a stale ack is
        indistinguishable from a fresh one (the ABA hazard of §IV-C's
        minimal mailbox).
        """
        self._check_slot(slot)
        self._acks[slot] = None

    def poll_ack(self, slot: int, phase: Phase) -> CPAck | None:
        """Driver side: the matching ack once the device completed."""
        self._check_slot(slot)
        word = self._acks[slot]
        if word is None:
            return None
        decoded = CPAck.decode(word)
        if decoded.phase != phase:
            return None
        return decoded

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.queue_depth:
            raise CPProtocolError(
                f"CP slot {slot} out of range (depth {self.queue_depth})")


@dataclass(frozen=True)
class OperationResult:
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
        if self.tracer.enabled:
            self.tracer.emit(submit_ps, "cp.post", _POSTED,
                             owner=self.trace_owner, cmd=cmd_id, slot=slot,
                             opcode=command.opcode.name,
                             phase=command.phase.name,
                             depth=self.cp.queue_depth)
        start = max(submit_ps, self.ready_ps)
        fault = (self.faults.pull_command_fault()
                 if self.faults is not None else None)
        if fault == "phase":
            # The phase field arrived mangled: the device's poll sees a
            # word whose phase matches the last command, concludes it is
            # stale, and goes back to sleep.  One poll window is burnt;
            # no media work, no acknowledgement — the driver times out.
            ready, windows = self._poll(start)
            self._fsm_to(NVMCState.IDLE, ready)
            result = OperationResult(command.opcode, submit_ps, ready,
                                     windows, 0, status=self.NO_ACK)
        elif fault == "opcode":
            # The opcode field arrived mangled: the device decodes
            # garbage and publishes DECODE_ERROR without touching media.
            ready, windows = self._poll(start)
            end, ack_windows = self._ack(ready)
            result = OperationResult(command.opcode, submit_ps, end,
                                     windows + ack_windows, 0,
                                     status=CPAck.DECODE_ERROR)
        elif command.opcode is Opcode.CACHEFILL:
            result = self._run_cachefill(command, submit_ps, start)
        elif command.opcode is Opcode.WRITEBACK:
            result = self._run_writeback(command, submit_ps, start)
        elif command.opcode is Opcode.MERGED:
            result = self._run_merged(command, submit_ps, start)
        elif command.opcode is Opcode.NOP:
            result = self._run_nop(command, submit_ps, start)
        else:
            raise CPProtocolError(f"unsupported opcode {command.opcode}")
        if fault is not None and self.tracer.enabled:
            self.tracer.emit(result.completion_ps, "cp.fault",
                             f"{command.opcode.name} corrupted ({fault})",
                             owner=self.trace_owner, cmd=cmd_id, slot=slot,
                             opcode=command.opcode.name, mode=fault)
        if result.status != self.NO_ACK:
            dropped = (self.faults.pull_ack_drop()
                       if self.faults is not None else False)
            if dropped:
                # The operation ran, but the ack write was lost in
                # flight: the driver times out and re-issues.
                if self.tracer.enabled:
                    self.tracer.emit(result.completion_ps, "cp.fault",
                                     f"{command.opcode.name} ack dropped",
                                     owner=self.trace_owner, cmd=cmd_id,
                                     slot=slot, opcode=command.opcode.name,
                                     mode="ack-drop")
            else:
                self.cp.ack(slot, CPAck(phase=command.phase,
                                        status=result.status))
                if self.tracer.enabled:
                    self.tracer.emit(result.completion_ps, "cp.ack", _DONE,
                                     owner=self.trace_owner, cmd=cmd_id,
                                     slot=slot, opcode=command.opcode.name,
                                     phase=command.phase.name,
                                     status=result.status)
        self.ready_ps = result.completion_ps
        return result

    # -- operation flows ---------------------------------------------------------------

    def _poll(self, start_ps: int) -> tuple[int, int]:
        """The CP-poll step; returns (poll end, windows consumed)."""
        self._fsm_to(NVMCState.POLL_CP, start_ps)
        window = self.timeline.next_window(start_ps)
        end, windows = self._dma_window(CACHELINE, window, "poll")
        return self.firmware.ready_after(end), windows

    def _ack(self, ready_ps: int) -> tuple[int, int]:
        """The ack-publish step; returns (ack end, windows consumed)."""
        self._fsm_to(NVMCState.ACK, ready_ps)
        window = self.timeline.next_window(ready_ps)
        end, windows = self._dma_window(CACHELINE, window, "ack")
        self._fsm_to(NVMCState.IDLE, end)
        return end, windows

    def _media_error_ack(self, opcode: Opcode, submit_ps: int,
                         fail_ps: int, windows: int) -> OperationResult:
        """Publish-path for a failed media operation: ack MEDIA_ERROR."""
        ready = self.firmware.ready_after(fail_ps)
        end, ack_windows = self._ack(ready)
        return OperationResult(opcode, submit_ps, end,
                               windows + ack_windows, 0,
                               status=CPAck.MEDIA_ERROR)

    def _degraded_ack(self, opcode: Opcode, submit_ps: int,
                      fail_ps: int, windows: int) -> OperationResult:
        """Publish-path for an operation the degraded media refused.

        The 4-bit ack status can only say DEGRADED; the driver pulls
        the machine-readable reason from the shared health monitor.
        """
        ready = self.firmware.ready_after(fail_ps)
        end, ack_windows = self._ack(ready)
        return OperationResult(opcode, submit_ps, end,
                               windows + ack_windows, 0,
                               status=CPAck.DEGRADED)

    def _run_cachefill(self, command: CPCommand, submit_ps: int,
                       start_ps: int) -> OperationResult:
        ready, windows = self._poll(start_ps)
        # NAND page read (tR + channel transfer), then firmware arms DMA.
        self._fsm_to(NVMCState.NAND_READ, ready)
        self._clock(ready, "nvmc.cachefill.read")
        try:
            data, nand_end = self.nand.read_page(command.nand_page, ready)
        except DegradedModeError:
            return self._degraded_ack(Opcode.CACHEFILL, submit_ps,
                                      ready, windows)
        except MediaError:
            return self._media_error_ack(Opcode.CACHEFILL, submit_ps,
                                         ready, windows)
        nand_busy = nand_end - ready
        if data is None:
            data = bytes(PAGE_4K)   # never-written page reads as zeros
        ready = self.firmware.ready_after(nand_end)
        # DMA the page into the DRAM cache slot inside a window.
        self._fsm_to(NVMCState.DRAM_WRITE, ready)
        window = self.timeline.next_window(ready)
        end, fill_windows = self._dma_window(
            PAGE_4K, window, "fill",
            addr=self._slot_addr(command.dram_slot))
        self.dram.poke(self._slot_addr(command.dram_slot), data)
        windows += fill_windows
        ready = self.firmware.ready_after(end)
        end, ack_windows = self._ack(ready)
        return OperationResult(Opcode.CACHEFILL, submit_ps, end,
                               windows + ack_windows, nand_busy)

    def _run_writeback(self, command: CPCommand, submit_ps: int,
                       start_ps: int) -> OperationResult:
        ready, windows = self._poll(start_ps)
        # DMA the victim page out of the DRAM cache inside a window.
        self._fsm_to(NVMCState.DRAM_READ, ready)
        window = self.timeline.next_window(ready)
        end, evict_windows = self._dma_window(
            PAGE_4K, window, "evict",
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
                                      end, windows)
        except MediaError:
            return self._media_error_ack(Opcode.WRITEBACK, submit_ps,
                                         end, windows)
        nand_busy = nand_end - end
        ready = self.firmware.ready_after(end)
        end, ack_windows = self._ack(ready)
        return OperationResult(Opcode.WRITEBACK, submit_ps, end,
                               windows + ack_windows, nand_busy)

    def _run_merged(self, command: CPCommand, submit_ps: int,
                    start_ps: int) -> OperationResult:
        """Future-work item (4): independent WB+fill in one command.

        The NAND read for the fill overlaps the victim DMA-out and the
        NAND program runs on the other channel; one poll and one ack are
        amortised over both halves.
        """
        ready, windows = self._poll(start_ps)
        # Window A: victim out of DRAM; NAND read proceeds in parallel.
        self._fsm_to(NVMCState.DRAM_READ, ready)
        window = self.timeline.next_window(ready)
        wb_end, evict_windows = self._dma_window(
            PAGE_4K, window, "evict",
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
                                      wb_end, windows)
        except MediaError:
            return self._media_error_ack(Opcode.MERGED, submit_ps,
                                         wb_end, windows)
        if data is None:
            data = bytes(PAGE_4K)
        nand_busy = max(prog_end, read_end) - ready
        ready = self.firmware.ready_after(max(wb_end, read_end))
        # Window B: fill data into the (just vacated) DRAM slot.
        self._fsm_to(NVMCState.DRAM_WRITE, ready)
        window = self.timeline.next_window(ready)
        end, fill_windows = self._dma_window(
            PAGE_4K, window, "fill",
            addr=self._slot_addr(command.dram_slot))
        self.dram.poke(self._slot_addr(command.dram_slot), data)
        windows += fill_windows
        ready = self.firmware.ready_after(end)
        end, ack_windows = self._ack(ready)
        return OperationResult(Opcode.MERGED, submit_ps, end,
                               windows + ack_windows, nand_busy)

    def _run_nop(self, command: CPCommand, submit_ps: int,
                 start_ps: int) -> OperationResult:
        ready, windows = self._poll(start_ps)
        end, ack_windows = self._ack(ready)
        return OperationResult(Opcode.NOP, submit_ps, end,
                               windows + ack_windows, 0)

    # -- helpers ----------------------------------------------------------------------------

    def _clock(self, now_ps: int, site: str) -> None:
        """Consult the fault clock (power loss) at a hook site."""
        if self.fault_clock is not None:
            self.fault_clock.check(now_ps, site)

    def _dma_window(self, nbytes: int, window: RefreshWindow,
                    kind: str, addr: int = -1) -> tuple[int, int]:
        """Move ``nbytes`` through refresh windows; returns
        ``(completion time, windows consumed)``.

        The clean path is one transfer in one window, exactly the §IV-A
        contract.  An injected shortfall truncates a page-sized chunk;
        the remainder is retried in the next window — each chunk still
        respects the per-window byte budget, so the transfer stays legal
        from the sanitizers' point of view, it just takes longer.

        The ``nvmc.dma`` record is self-describing for the sanitizers: it
        carries the window bounds the transfer must respect and the
        per-window byte budget, so observers need no timeline of their
        own.
        """
        remaining = nbytes
        windows_used = 0
        end = window.start_ps
        while True:
            self._clock(window.start_ps, f"nvmc.dma.{kind}")
            shortfall = 0
            if self.faults is not None and kind in ("fill", "evict"):
                shortfall = self.faults.pull_dma_shortfall()
            moved = max(0, remaining - shortfall)
            end = (self.dma.schedule(moved, window) if moved > 0
                   else window.start_ps)
            windows_used += 1
            if self.tracer.enabled:
                self.tracer.emit(window.start_ps, "nvmc.dma", _MOVED,
                                 owner=self.trace_owner, cmd=self._cmd_seq,
                                 kind=kind, window=window.index, bytes=moved,
                                 requested=remaining,
                                 budget=self.dma.window_bytes, addr=addr,
                                 win_start=window.start_ps,
                                 win_end=window.end_ps, end_ps=end)
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


@dataclass(frozen=True)
class RefreshWindow:
    """One device-access opportunity behind a REFRESH command."""

    index: int
    refresh_ps: int     # REF command time
    start_ps: int       # REF + tRFC_device: DRAM is usable again
    end_ps: int         # REF + tRFC_programmed: host resumes

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps


class OracleTimeline(RefreshTimeline):
    """The live timeline with the replaced ``next_window``."""

    def next_window(self, time_ps: int) -> RefreshWindow:
        """First window whose usable interval starts at or after ``time_ps``.

        If ``time_ps`` falls inside a window's usable interval, that
        window is *not* returned — callers who can still use the current
        window should call :meth:`window_containing` first.  This mirrors
        the NVMC firmware, which arms a transfer only for a window it can
        use from its very start.
        """
        index = self.index_at_or_after(
            time_ps - self.trfc_device_ps)
        ref = self.offset_ps + index * self.trefi_ps
        if ref + self.trfc_device_ps < time_ps:
            index += 1
            ref += self.trefi_ps
        return RefreshWindow(index, ref,
                             ref + self.trfc_device_ps,
                             ref + self.trfc_programmed_ps)


class OracleDRAM(DRAMDevice):
    """The live device with the replaced address decode and backdoor
    access."""

    def decode(self, addr: int) -> AddressParts:
        """Flat byte address -> (bank, row, column byte offset)."""
        if not 0 <= addr < self.capacity_bytes:
            raise ProtocolError(
                f"{self.name}: address {addr:#x} out of range "
                f"(capacity {self.capacity_bytes:#x})")
        row_global, column_byte = divmod(addr, self.spec.row_size_bytes)
        bank = row_global % self.spec.total_banks
        row = row_global // self.spec.total_banks
        return AddressParts(bank=bank, row=row, column_byte=column_byte)

    def peek(self, addr: int, nbytes: int) -> bytes:
        """Read bytes bypassing the protocol (test/verification aid)."""
        out = bytearray()
        while nbytes > 0:
            parts = self.decode(addr)
            buf = self._rows.get((parts.bank, parts.row))
            chunk = min(nbytes, self.spec.row_size_bytes - parts.column_byte)
            if buf is None:
                out.extend(b"\x00" * chunk)
            else:
                out.extend(buf[parts.column_byte:parts.column_byte + chunk])
            addr += chunk
            nbytes -= chunk
        return bytes(out)

    def poke(self, addr: int, data: bytes) -> None:
        """Write bytes bypassing the protocol (test/initialisation aid)."""
        offset = 0
        while offset < len(data):
            parts = self.decode(addr + offset)
            buf = self._row_buffer(parts.bank, parts.row)
            chunk = min(len(data) - offset,
                        self.spec.row_size_bytes - parts.column_byte)
            buf[parts.column_byte:parts.column_byte + chunk] = (
                data[offset:offset + chunk])
            offset += chunk


# -- the properties -----------------------------------------------------------

SPEC = NVDIMMC_1600
SLOTS = 6
PAGES = 12
OWNER = "nvmc#0"
#: Submit gaps: back-to-back, sub-window, one tREFI, long idle.
GAPS_PS = (0, 1, us(2), SPEC.trefi_ps, us(60))
#: Withheld DMA bytes: partial, whole page (nothing moves), beyond it.
SHORTFALLS = (64, kb(2), PAGE_4K, 2 * PAGE_4K)


class ClockRecorder:
    """A fault clock that never fires and remembers every visit."""

    def __init__(self) -> None:
        self.visits: list[tuple[int, str]] = []

    def check(self, now_ps: int, site: str) -> None:
        self.visits.append((now_ps, site))


@dataclass
class Side:
    """One model with its own media, tracer, fault port and clock."""

    model: object
    command_cls: type
    clock: ClockRecorder | None
    records: list


def _side(model_cls, timeline_cls, dram_cls, command_cls, faults: bool,
          clocked: bool) -> Side:
    nand_spec = ZNANDSpec(
        name="test", capacity_bytes=128 * 16 * kb(4), page_bytes=kb(4),
        pages_per_block=16, planes_per_die=1, dies=1,
        initial_bad_block_ppm=0)
    nand = NANDController(nand_spec, logical_capacity_bytes=64 * 16 * kb(4),
                          channels=2, dies_total=2)
    dram = dram_cls(SPEC, capacity_bytes=mb(1))
    tracer = Tracer(enabled=True)
    records: list = []
    tracer.subscribe(records.append)
    model = model_cls(timeline_cls(SPEC), nand, dram,
                      firmware=FirmwareModel(step_ps=us(4)), tracer=tracer)
    model.trace_owner = OWNER
    for slot in range(SLOTS):
        dram.poke(model._slot_addr(slot),
                  bytes([slot + 1]) * (PAGE_4K // 2) + bytes(PAGE_4K // 2))
    if faults:
        model.faults = CPFaultPort()
    clock = ClockRecorder() if clocked else None
    model.fault_clock = clock
    return Side(model, command_cls, clock, records)


def _attempt(call):
    """``(value, None)`` or ``(None, (error type, message))``."""
    try:
        return call(), None
    except (CPProtocolError, DeviceError) as exc:
        return None, (type(exc).__name__, str(exc))


def _result_view(result):
    """What a caller can see of an ``OperationResult``."""
    if result is None:
        return None
    values = (tuple(result) if isinstance(result, live.OperationResult)
              else astuple(result))
    return repr(result), values, result.latency_ps


def _poll_view(value):
    return None if value is None else (repr(value), value.phase,
                                       getattr(value, "status", None))


def _state(side: Side):
    model = side.model
    return {
        "fsm": model.fsm.state,
        "dma": model.dma.stats,
        "ready_ps": model.ready_ps,
        "cmd_seq": model._cmd_seq,
        "phase": model._phase,
        "commands": list(model.cp._commands),
        "acks": list(model.cp._acks),
        "posted": model.cp.commands_posted,
        "dram": {key: bytes(row) for key, row in model.dram._rows.items()},
        "faults": (None if model.faults is None else
                   (model.faults.commands_corrupted,
                    model.faults.acks_dropped,
                    model.faults.dma_shortfalls_applied,
                    model.faults.exhausted)),
        "trace": _trace(model, side.records),
        "clock": None if side.clock is None else list(side.clock.visits),
    }


def _trace(model, records) -> list[tuple]:
    """The trace, with ``nvmc.dma`` compared one window at a time."""
    out = []
    for r in records:
        if r.category != "nvmc.dma":
            out.append((r.time_ps, r.category, list(r.fields.items()),
                        r.message, str(r)))
        elif isinstance(model, live.NVMCModel):
            fields = r.fields
            windows = [dict(zip(live.DMA_WINDOW_FIELDS, entry))
                       for entry in fields["windows"]]
            assert list(fields) == ["owner", "cmd", "budget", "windows"]
            assert r.time_ps == windows[0]["win_start"]
            assert r.message == ", ".join(_MOVED.format_map(window)
                                          for window in windows)
            out.extend((window["win_start"], r.category,
                        dict(owner=fields["owner"], cmd=fields["cmd"],
                             budget=fields["budget"], **window))
                       for window in windows)
        else:
            out.append((r.time_ps, r.category, dict(r.fields)))
    return out


def _step(side: Side, op, submit_ps: int):
    (opcode, slot, page, wb_slot, wb_page, _gap, _anchor, toggle,
     corrupt, drop, shortfall, clear) = op
    model = side.model
    if model.faults is not None:
        if corrupt is not None:
            model.faults.corrupt_command(corrupt)
        if drop:
            model.faults.drop_ack()
        if shortfall:
            model.faults.shorten_dma(shortfall)
    if clear:
        model.cp.clear_ack(0)
    phase = model.next_phase() if toggle else model._phase
    command = side.command_cls(phase=phase, opcode=opcode, dram_slot=slot,
                               nand_page=page, wb_dram_slot=wb_slot,
                               wb_nand_page=wb_page)
    result, error = _attempt(lambda: model.submit(command, submit_ps))
    other = Phase.EVEN if phase is Phase.ODD else Phase.ODD
    polls = [_attempt(lambda p=p: _poll_view(model.cp.poll_ack(0, p)))
             for p in (phase, other)]
    polls += [_attempt(lambda p=p: _poll_view(model.cp.poll_command(0, p)))
              for p in (None, phase, other)]
    return _result_view(result), error, polls


#: The four opcodes the NVMC runs, and the one it refuses, less often.
_OPCODES = (Opcode.NOP, Opcode.CACHEFILL, Opcode.WRITEBACK,
            Opcode.MERGED) * 3 + (Opcode.FLUSH_METADATA,)

_OPS = st.tuples(
    st.sampled_from(_OPCODES),
    st.integers(0, SLOTS - 1), st.integers(0, PAGES - 1),
    st.integers(0, SLOTS - 1), st.integers(0, PAGES - 1),
    st.sampled_from(GAPS_PS),
    st.booleans(),                               # gap after the last completion
    st.sampled_from((True, True, True, False)),  # toggle the phase
    st.sampled_from((None, None, "phase", "opcode")),
    st.booleans(),                               # drop the ack
    st.sampled_from((0, 0) + SHORTFALLS),
    st.booleans(),                               # clear the ack first
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=14), faults=st.booleans(),
       clocked=st.booleans())
def test_cp_exchange_matches_oracle(ops, faults, clocked):
    new = _side(live.NVMCModel, RefreshTimeline, DRAMDevice,
                live_cp.CPCommand, faults, clocked)
    old = _side(NVMCModel, OracleTimeline, OracleDRAM, CPCommand, faults,
                clocked)
    t = 0
    for op in ops:
        gap, anchor = op[5], op[6]
        t = (max(t, new.model.ready_ps) if anchor else t) + gap
        assert _step(new, op, t) == _step(old, op, t)
        assert _state(new) == _state(old)


@settings(max_examples=200, deadline=None)
@given(time_ps=st.integers(0, 10**9), offset_ps=st.integers(0, 10**7),
       trfc_ns=st.sampled_from((350, 550, 1250)))
def test_next_window_matches_oracle(time_ps, offset_ps, trfc_ns):
    spec = SPEC.with_extended_trfc(trfc_ns * 1000)
    window = RefreshTimeline(spec, offset_ps).next_window(time_ps)
    oracle = OracleTimeline(spec, offset_ps).next_window(time_ps)
    assert isinstance(window, live_imc.RefreshWindow)
    assert tuple(window) == astuple(oracle)
    assert repr(window) == repr(oracle)
    assert window.duration_ps == oracle.duration_ps


@settings(max_examples=100, deadline=None)
@given(addr=st.integers(0, mb(1) - 1), nbytes=st.integers(0, 3 * 8192),
       fill=st.binary(min_size=1, max_size=64))
def test_peek_poke_match_oracle(addr, nbytes, fill):
    nbytes = min(nbytes, mb(1) - addr)
    data = (fill * (nbytes // len(fill) + 1))[:nbytes]
    new, old = DRAMDevice(SPEC, mb(1)), OracleDRAM(SPEC, mb(1))
    new.poke(addr, data)
    old.poke(addr, data)
    assert new._rows == old._rows
    start = max(0, addr - 100)
    span = min(nbytes + 200, mb(1) - start)
    assert new.peek(start, span) == old.peek(start, span)
    assert new.decode(addr) == old.decode(addr)


def test_out_of_range_backdoor_access_matches_oracle():
    for device in (DRAMDevice(SPEC, mb(1)), OracleDRAM(SPEC, mb(1))):
        for call in (lambda: device.peek(mb(1), 1),
                     lambda: device.poke(mb(1) - 1, b"xy"),
                     lambda: device.peek(-1, 1)):
            with pytest.raises(ProtocolError, match="out of range"):
                call()
        assert device.peek(mb(1), 0) == b""
