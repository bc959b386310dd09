"""Tests for the extension modules: devdax, arbitration, variants,
design space."""

import pytest

from repro.cpu.core import CPUCore
from repro.cpu.mmu import MMU
from repro.device.arbitration import (DummyAccessScheme,
                                      PriorityPreemptScheme, TRFCScheme)
from repro.device.nvdimmc import NVDIMMCSystem
from repro.device.power import PowerFailureModel, RecoveredDevice
from repro.device.variants import (all_variants,
                                   compatible_and_byte_addressable_and_dense,
                                   nvdimm_c, nvdimm_n)
from repro.errors import KernelError
from repro.experiments.design_space import (max_programmable_budget_ps,
                                            TECHNOLOGIES)
from repro.ddr.spec import GRADE_2400
from repro.kernel.devdax import DevDaxDevice
from repro.nvmc.fsm import FirmwareModel
from repro.recovery.mount import recover_mount
from repro.units import PAGE_4K, mb


def make_devdax():
    system = NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(32),
                           with_cpu_cache=True,
                           firmware=FirmwareModel(step_ps=0),
                           conservative_dirty=False)
    dax = DevDaxDevice(system.driver)
    mmu = MMU()
    core = CPUCore(0, mmu, system.cpu_cache)
    return system, dax, mmu, core


class TestDevDax:
    def test_mmap_and_store_load(self):
        system, dax, mmu, core = make_devdax()
        dax.mmap(mmu, vaddr=0x40000000)
        core.store(0x40000000 + 100, b"devdax!")
        assert core.load(0x40000000 + 100, 7) == b"devdax!"
        assert dax.fault_count == 1

    def test_unaligned_mmap_rejected(self):
        _sys, dax, mmu, _core = make_devdax()
        with pytest.raises(KernelError):
            dax.mmap(mmu, vaddr=123)

    def test_oversized_mapping_rejected(self):
        _sys, dax, mmu, _core = make_devdax()
        with pytest.raises(KernelError):
            dax.mmap(mmu, vaddr=0, length=mb(64))

    def test_persist_marks_pages_dirty(self):
        system, dax, mmu, core = make_devdax()
        dax.mmap(mmu, vaddr=0x40000000)
        core.store(0x40000000, b"x" * 64)
        dax.persist(core, 0x40000000, 64)
        slot = system.driver.page_to_slot[0]
        assert slot in system.driver.dirty_slots

    def test_persisted_data_survives_power_failure(self):
        """The §V-C future-work promise: user-managed durability."""
        system, dax, mmu, core = make_devdax()
        dax.mmap(mmu, vaddr=0x40000000)
        payload = b"durable-record" * 4
        core.store(0x40000000 + PAGE_4K, payload)
        dax.persist(core, 0x40000000 + PAGE_4K, len(payload))
        power = PowerFailureModel(system.driver)
        power.power_fail()
        fresh, _ = recover_mount(system, power.journal)
        recovered = RecoveredDevice(fresh.driver,
                                    power.journal).read_page(1)
        assert recovered[:len(payload)] == payload

    def test_unpersisted_store_may_be_lost(self):
        """Without the clflush ritual, data stuck in the CPU cache does
        not reach the persistence domain."""
        system, dax, mmu, core = make_devdax()
        dax.mmap(mmu, vaddr=0x40000000)
        payload = b"volatile" * 8
        core.store(0x40000000 + PAGE_4K, payload)   # no persist()
        power = PowerFailureModel(system.driver)
        power.power_fail()
        fresh, _ = recover_mount(system, power.journal)
        recovered = RecoveredDevice(fresh.driver,
                                    power.journal).read_page(1)
        assert recovered[:len(payload)] != payload


class TestArbitrationSchemes:
    def test_trfc_ceiling_matches_paper(self):
        assert TRFCScheme().device_ceiling_mb_s() == pytest.approx(
            500.8, abs=1.0)

    def test_trfc_ceiling_scales_with_window_bytes(self):
        wide = TRFCScheme(window_bytes=8192)
        assert wide.device_ceiling_mb_s() == pytest.approx(1001.6, abs=2)

    def test_dummy_access_validation(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            DummyAccessScheme(dummy_write_mb_s=-1)
        # ConfigError is still a ValueError for pre-taxonomy callers.
        with pytest.raises(ValueError):
            DummyAccessScheme(dummy_write_mb_s=20_000)

    def test_dummy_access_costs_host_one_for_one(self):
        profile = DummyAccessScheme(1000, channel_mb_s=10_000).profile()
        assert profile.device_ceiling_mb_s == 1000
        assert profile.host_bandwidth_share == pytest.approx(0.9)
        assert profile.capacity_efficiency == 0.5

    def test_preempt_starves_under_load(self):
        busy = PriorityPreemptScheme(host_utilization=1.0).profile()
        assert busy.device_ceiling_mb_s == 0.0
        idle = PriorityPreemptScheme(host_utilization=0.0).profile()
        assert idle.device_ceiling_mb_s > 0
        assert not busy.guaranteed_device_progress

    def test_only_trfc_guarantees_progress_at_full_capacity(self):
        trfc = TRFCScheme().profile()
        assert trfc.guaranteed_device_progress
        assert trfc.capacity_efficiency == 1.0


class TestDesignSpace:
    def test_budget_is_51_6ns(self):
        assert max_programmable_budget_ps(GRADE_2400) / 1000 == (
            pytest.approx(51.6, abs=0.3))

    def test_only_stt_mram_fits(self):
        budget = max_programmable_budget_ps(GRADE_2400)
        fitting = [t.name for t in TECHNOLOGIES
                   if t.read_latency_ps <= budget]
        assert fitting == ["STT-MRAM"]


class TestVariants:
    def test_four_variants(self):
        assert len(all_variants()) == 4

    def test_selection_picks_nvdimm_c(self):
        winners = compatible_and_byte_addressable_and_dense()
        assert [v.name for v in winners] == ["NVDIMM-C"]

    def test_nvdimm_n_holdup_scales_with_dram(self):
        small = nvdimm_n(dram_bytes=mb(512) * 2)
        big = nvdimm_n()
        assert big.backup_energy_window_s > small.backup_energy_window_s

    def test_nvdimm_c_capacity_exceeds_its_dram(self):
        c = nvdimm_c()
        assert c.capacity_bytes > 16 * (1 << 30) / 2
