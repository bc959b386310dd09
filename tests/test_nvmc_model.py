"""Tests for the transaction-level NVMC: window scheduling + data flow."""

import re

import pytest

from repro.ddr.device import DRAMDevice
from repro.ddr.imc import RefreshTimeline
from repro.ddr.spec import DDR4_1600, NVDIMMC_1600
from repro.errors import DeviceError
from repro.nand.controller import NANDController
from repro.nand.spec import ZNANDSpec
from repro.nvmc.cp import CPCommand, Opcode, Phase
from repro.nvmc.fsm import FirmwareModel, NVMCState
from repro.nvmc.nvmc import NVMCModel
from repro.units import kb, mb, us

SPEC = NVDIMMC_1600


def make_nvmc(firmware_step_ps=0, cp_queue_depth=1):
    timeline = RefreshTimeline(SPEC)
    nand_spec = ZNANDSpec(
        name="test", capacity_bytes=128 * 16 * kb(4), page_bytes=kb(4),
        pages_per_block=16, planes_per_die=1, dies=1,
        initial_bad_block_ppm=0)
    nand = NANDController(nand_spec, logical_capacity_bytes=64 * 16 * kb(4),
                          channels=2, dies_total=2)
    dram = DRAMDevice(SPEC, capacity_bytes=mb(64))
    nvmc = NVMCModel(timeline, nand, dram,
                     firmware=FirmwareModel(step_ps=firmware_step_ps),
                     cp_queue_depth=cp_queue_depth)
    return nvmc, nand, dram, timeline


PAGE = bytes(range(256)) * 16


class TestCachefill:
    def test_moves_nand_page_into_dram_slot(self):
        nvmc, nand, dram, _ = make_nvmc()
        nand.program_page(7, PAGE, 0)
        cmd = CPCommand(phase=Phase.ODD, opcode=Opcode.CACHEFILL,
                        dram_slot=3, nand_page=7)
        result = nvmc.submit(cmd, submit_ps=us(200))
        assert dram.peek(nvmc._slot_addr(3), kb(4)) == PAGE
        assert result.opcode is Opcode.CACHEFILL

    def test_ideal_cachefill_takes_three_windows(self):
        """§V-A: poll + data + ack, one refresh window each, when the
        firmware is instant and the NAND page was never written."""
        nvmc, _, _, timeline = make_nvmc(firmware_step_ps=0)
        cmd = CPCommand(phase=Phase.ODD, opcode=Opcode.CACHEFILL,
                        dram_slot=0, nand_page=0)
        result = nvmc.submit(cmd, submit_ps=0)
        assert result.windows_used == 3
        # Completion lands in the third window (>= 3 * tREFI minimum).
        assert result.completion_ps >= 3 * timeline.trefi_ps
        assert result.completion_ps < 4 * timeline.trefi_ps

    def test_unwritten_nand_page_fills_zeros(self):
        nvmc, _, dram, _ = make_nvmc()
        cmd = CPCommand(phase=Phase.ODD, opcode=Opcode.CACHEFILL,
                        dram_slot=1, nand_page=9)
        nvmc.submit(cmd, submit_ps=0)
        assert dram.peek(nvmc._slot_addr(1), kb(4)) == bytes(kb(4))


class TestWriteback:
    def test_moves_dram_slot_into_nand(self):
        nvmc, nand, dram, _ = make_nvmc()
        dram.poke(nvmc._slot_addr(2), PAGE)
        cmd = CPCommand(phase=Phase.ODD, opcode=Opcode.WRITEBACK,
                        dram_slot=2, nand_page=5)
        nvmc.submit(cmd, submit_ps=0)
        data, _ = nand.read_page(5, 0)
        assert data == PAGE

    def test_ideal_writeback_takes_three_windows(self):
        nvmc, _, dram, _ = make_nvmc(firmware_step_ps=0)
        dram.poke(nvmc._slot_addr(0), PAGE)
        cmd = CPCommand(phase=Phase.ODD, opcode=Opcode.WRITEBACK,
                        dram_slot=0, nand_page=0)
        result = nvmc.submit(cmd, submit_ps=0)
        assert result.windows_used == 3

    def test_ack_does_not_wait_for_nand_program(self):
        """Data is captured in the battery-backed buffer; the ~100 us
        program continues after the ack."""
        nvmc, nand, dram, _ = make_nvmc(firmware_step_ps=0)
        dram.poke(nvmc._slot_addr(0), PAGE)
        cmd = CPCommand(phase=Phase.ODD, opcode=Opcode.WRITEBACK,
                        dram_slot=0, nand_page=0)
        result = nvmc.submit(cmd, submit_ps=0)
        assert result.latency_ps < nand.spec.program_ps + 3 * us(7.8)


class TestPairTiming:
    def test_poc_pair_is_slower_than_theoretical(self):
        """§VII-B2: firmware lag + NAND time push a writeback+cachefill
        pair well past the 6-window theoretical minimum."""
        nvmc, nand, dram, timeline = make_nvmc(
            firmware_step_ps=FirmwareModel().step_ps)
        nand.preload(1, PAGE)
        dram.poke(nvmc._slot_addr(0), PAGE)
        wb = CPCommand(phase=Phase.ODD, opcode=Opcode.WRITEBACK,
                       dram_slot=0, nand_page=2)
        r1 = nvmc.submit(wb, submit_ps=0)
        fill = CPCommand(phase=Phase.EVEN, opcode=Opcode.CACHEFILL,
                         dram_slot=0, nand_page=1)
        r2 = nvmc.submit(fill, submit_ps=r1.completion_ps + us(1))
        total = r2.completion_ps
        windows = total / timeline.trefi_ps
        assert 7.0 <= windows <= 11.0   # paper: 8.9

    def test_merged_command_beats_separate_pair(self):
        """§VII-C item (4): merged WB+fill amortises poll/ack windows."""
        nvmc1, nand1, dram1, _ = make_nvmc(firmware_step_ps=0)
        nand1.preload(1, PAGE)
        dram1.poke(nvmc1._slot_addr(0), PAGE)
        r1 = nvmc1.submit(CPCommand(phase=Phase.ODD, opcode=Opcode.WRITEBACK,
                                    dram_slot=0, nand_page=2), 0)
        r2 = nvmc1.submit(CPCommand(phase=Phase.EVEN,
                                    opcode=Opcode.CACHEFILL,
                                    dram_slot=0, nand_page=1),
                          r1.completion_ps)
        separate = r2.completion_ps

        nvmc2, nand2, dram2, _ = make_nvmc(firmware_step_ps=0)
        nand2.preload(1, PAGE)
        dram2.poke(nvmc2._slot_addr(0), PAGE)
        merged = nvmc2.submit(CPCommand(
            phase=Phase.ODD, opcode=Opcode.MERGED, dram_slot=0, nand_page=1,
            wb_dram_slot=0, wb_nand_page=2), 0)
        assert merged.completion_ps < separate
        assert dram2.peek(nvmc2._slot_addr(0), kb(4)) == PAGE

    def test_device_serialises_commands(self):
        """Queue depth 1: a second command waits for the first."""
        nvmc, _, _, _ = make_nvmc(firmware_step_ps=0)
        r1 = nvmc.submit(CPCommand(phase=Phase.ODD, opcode=Opcode.CACHEFILL,
                                   dram_slot=0, nand_page=0), 0)
        r2 = nvmc.submit(CPCommand(phase=Phase.EVEN, opcode=Opcode.CACHEFILL,
                                   dram_slot=1, nand_page=1), 0)
        assert r2.completion_ps > r1.completion_ps


class TestPhaseManagement:
    def test_next_phase_toggles(self):
        nvmc, _, _, _ = make_nvmc()
        assert nvmc.next_phase() is Phase.ODD
        assert nvmc.next_phase() is Phase.EVEN
        assert nvmc.next_phase() is Phase.ODD


def make_warm_nvmc(spec=SPEC, window_bytes=kb(4)):
    """An NVMC whose DMA duration memo already holds both CP sizes, so
    every transfer below is a memo hit."""
    nand_spec = ZNANDSpec(
        name="test", capacity_bytes=128 * 16 * kb(4), page_bytes=kb(4),
        pages_per_block=16, planes_per_die=1, dies=1,
        initial_bad_block_ppm=0)
    nand = NANDController(nand_spec, logical_capacity_bytes=64 * 16 * kb(4),
                          channels=2, dies_total=2)
    nvmc = NVMCModel(RefreshTimeline(spec), nand,
                     DRAMDevice(spec, capacity_bytes=mb(64)),
                     window_bytes=window_bytes)
    nvmc.dma.transfer_time_ps(64)
    nvmc.dma.transfer_time_ps(kb(4))
    return nvmc


class TestWindowStepChecks:
    """The window step keeps the DMA engine's and the FSM's checks on a
    memo hit (the CP oracle never varies the budget or the spec)."""

    def test_budget_below_a_page_refuses_the_fill(self):
        nvmc = make_warm_nvmc(window_bytes=kb(2))
        cmd = CPCommand(Phase.ODD, Opcode.CACHEFILL, 3, 7)
        with pytest.raises(DeviceError, match=re.escape(
                "transfer of 4096 B exceeds the per-window budget of "
                "2048 B")):
            nvmc.submit(cmd, 0)
        assert nvmc.dma.stats.transfers == 1     # the poll moved

    def test_zero_length_window_refuses_the_poll(self):
        nvmc = make_warm_nvmc(spec=DDR4_1600)     # stock tRFC
        assert nvmc.timeline.window_duration_ps == 0
        need = nvmc.dma.transfer_time_ps(64)
        cmd = CPCommand(Phase.ODD, Opcode.NOP)
        with pytest.raises(DeviceError, match=re.escape(
                f"transfer of 64 B needs {need} ps but the window is only "
                "0 ps")):
            nvmc.submit(cmd, 0)
        assert nvmc.dma.stats.transfers == 0

    def test_op_left_mid_flight_is_refused(self):
        nvmc = make_warm_nvmc()
        nvmc.fsm.state = NVMCState.DRAM_WRITE   # as a power cut left it
        cmd = CPCommand(Phase.ODD, Opcode.CACHEFILL, 3, 7)
        with pytest.raises(DeviceError, match=re.escape(
                "illegal FSM transition DRAM_WRITE -> IDLE at 5000 ps")):
            nvmc.submit(cmd, 5000)
        assert nvmc.fsm.state is NVMCState.DRAM_WRITE
        assert nvmc.dma.stats.transfers == 0
