"""Tests for the DMA engine's window budgeting and the FSM tracker."""

import pytest

from repro.ddr.imc import RefreshTimeline
from repro.ddr.spec import NVDIMMC_1600
from repro.errors import DeviceError
from repro.nvmc.dma import DMAEngine
from repro.nvmc.fsm import FirmwareModel, FSMTracker, NVMCState
from repro.units import kb, us

SPEC = NVDIMMC_1600
TIMELINE = RefreshTimeline(SPEC)


class TestDMA:
    def test_4kb_fits_in_900ns_window(self):
        """§IV-A: up to 4 KB per extra-tRFC window."""
        dma = DMAEngine(SPEC)
        window = TIMELINE.window(0)
        assert dma.fits_in_window(kb(4), window)

    def test_8kb_requires_bigger_budget(self):
        """§VII-C item (3): 8 KB per window is time-feasible but the
        PoC's budget register caps at 4 KB."""
        stock = DMAEngine(SPEC)
        window = TIMELINE.window(0)
        assert not stock.fits_in_window(kb(8), window)
        wide = DMAEngine(SPEC, window_bytes=kb(8))
        assert wide.fits_in_window(kb(8), window)   # 8 KB < 900 ns of bus

    def test_schedule_returns_completion_inside_window(self):
        dma = DMAEngine(SPEC)
        window = TIMELINE.window(0)
        end = dma.schedule(kb(4), window)
        assert window.start_ps < end <= window.end_ps

    def test_over_budget_raises(self):
        dma = DMAEngine(SPEC)
        with pytest.raises(DeviceError):
            dma.schedule(kb(8), TIMELINE.window(0))

    def test_too_slow_for_window_raises(self):
        # A 4 KB transfer cannot fit a stock-tRFC (zero-length) window.
        from repro.ddr.spec import DDR4_1600
        dma = DMAEngine(DDR4_1600)
        timeline = RefreshTimeline(DDR4_1600)
        with pytest.raises(DeviceError):
            dma.schedule(kb(4), timeline.window(0))

    def test_max_bytes_for_window(self):
        dma = DMAEngine(SPEC)
        window = TIMELINE.window(0)
        max_bytes = dma.max_bytes_for(window)
        assert max_bytes == kb(4)   # capped by the budget register
        wide = DMAEngine(SPEC, window_bytes=kb(64))
        physical_cap = wide.max_bytes_for(window)
        assert kb(8) <= physical_cap < kb(64)

    def test_stats(self):
        dma = DMAEngine(SPEC)
        dma.schedule(kb(4), TIMELINE.window(0))
        dma.schedule(64, TIMELINE.window(1))
        assert dma.stats.transfers == 2
        assert dma.stats.bytes_moved == kb(4) + 64


class TestFirmwareModel:
    def test_default_lag_is_positive(self):
        fw = FirmwareModel()
        assert fw.ready_after(100) > 100

    def test_asic_mode_zero_lag(self):
        fw = FirmwareModel(step_ps=0)
        assert fw.ready_after(100) == 100

    def test_lag_fits_between_adjacent_windows(self):
        """The calibrated lag lets a lone step reach the *next* window
        (poll at W1 -> transfer at W2), matching the 3-window minimum
        for a single command; the misses come from NAND time stacking
        on top (§VII-B2)."""
        fw = FirmwareModel()
        w0 = TIMELINE.window(0)
        ready = fw.ready_after(w0.start_ps + us(0.35))
        assert ready < TIMELINE.window(1).start_ps


class TestFSMTracker:
    def test_legal_cachefill_path(self):
        fsm = FSMTracker()
        for state in (NVMCState.POLL_CP, NVMCState.NAND_READ,
                      NVMCState.DRAM_WRITE, NVMCState.ACK, NVMCState.IDLE):
            fsm.transition(state, 0)
        assert fsm.state is NVMCState.IDLE

    def test_legal_writeback_path(self):
        fsm = FSMTracker()
        for state in (NVMCState.POLL_CP, NVMCState.DRAM_READ,
                      NVMCState.NAND_PROGRAM, NVMCState.ACK):
            fsm.transition(state, 0)
        assert fsm.state is NVMCState.ACK

    def test_illegal_transition_rejected(self):
        fsm = FSMTracker()
        with pytest.raises(DeviceError):
            fsm.transition(NVMCState.DRAM_WRITE, 0)
