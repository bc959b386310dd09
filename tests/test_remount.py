"""Tests for the §V-C recovery story end to end: fail, drain, remount."""


from repro.device.nvdimmc import NVDIMMCSystem
from repro.device.power import PowerFailureModel
from repro.nvmc.fsm import FirmwareModel
from repro.recovery import recover_mount
from repro.units import PAGE_4K, mb


def make_system():
    return NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(32),
                         firmware=FirmwareModel(step_ps=0),
                         with_cpu_cache=True)


def page_of(tag):
    return bytes([tag % 256]) * PAGE_4K


class TestRemount:
    def test_full_cycle_preserves_data(self):
        system = make_system()
        t = 0
        for page in range(12):
            t = system.driver.write_page(page, page_of(page),
                                         max(t, system.nvmc.ready_ps))
        PowerFailureModel(system.driver).power_fail()
        rebooted, _ = recover_mount(system)
        t = 0
        for page in range(12):
            data, t = rebooted.driver.read_page(
                page, max(t, rebooted.nvmc.ready_ps))
            assert data == page_of(page)

    def test_remount_starts_cold(self):
        system = make_system()
        system.driver.write_page(0, page_of(1), 0)
        PowerFailureModel(system.driver).power_fail()
        rebooted, _ = recover_mount(system)
        assert rebooted.driver.cached_pages == 0
        assert rebooted.driver.free_slot_count == rebooted.region.num_slots
        # First access after reboot is a miss (cachefill from NAND).
        rebooted.op(0, PAGE_4K, False, 0)
        assert rebooted.driver.stats.misses == 1

    def test_unflushed_dram_data_is_lost_without_drain(self):
        """Power failure *without* the battery drain (dead PMIC): only
        data already written back to NAND survives."""
        system = make_system()
        t = system.driver.write_page(0, page_of(7), 0)
        # No power_fail() drain: simulate a dead battery by mounting
        # directly.
        rebooted, _ = recover_mount(system)
        data, _ = rebooted.driver.read_page(0, 0)
        assert data != page_of(7)          # the write never left DRAM

    def test_remount_preserves_configuration(self):
        system = NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(32),
                               policy="lru", conservative_dirty=False)
        rebooted, _ = recover_mount(system)
        assert rebooted.driver.policy.name == "lru"
        assert not rebooted.driver.conservative_dirty
        assert rebooted.capacity_bytes == system.capacity_bytes

    def test_remounted_system_runs_workloads(self):
        from repro.workloads.fio import FIOJob, FIORunner
        from repro.units import kb
        system = make_system()
        PowerFailureModel(system.driver).power_fail()
        rebooted, _ = recover_mount(system)
        result = FIORunner(rebooted).run(
            FIOJob(rw="randread", bs=kb(4), size=mb(1), nops=100))
        assert result.total_ops == 100
