"""Tests for the power-failure drain and the §V-C persistence race."""

import pytest

from repro.ddr.imc import WritePendingQueue
from repro.device.nvdimmc import NVDIMMCSystem
from repro.device.power import PowerFailureModel, RecoveredDevice
from repro.nvmc.fsm import FirmwareModel
from repro.recovery.mount import recover_mount
from repro.units import PAGE_4K, mb


def make_system():
    return NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(32),
                         firmware=FirmwareModel(step_ps=0),
                         with_cpu_cache=True)


def page_of(tag):
    return bytes([tag % 256]) * PAGE_4K


def cold_mount(system, power):
    """What a reboot reads: the module cold-mounted over its media, with
    the drain's journal for the replay audit."""
    fresh, _ = recover_mount(system, power.journal)
    return RecoveredDevice(fresh.driver, power.journal)


class TestDrain:
    def test_cached_pages_survive_power_loss(self):
        system = make_system()
        driver = system.driver
        for page in range(5):
            slot, _ = driver.fault(page, 0, True)
            system.dram.poke(system.region.slot_paddr(slot), page_of(page))
        power = PowerFailureModel(driver)
        report = power.power_fail()
        assert report.pages_drained == 5
        recovered = cold_mount(system, power)
        for page in range(5):
            assert recovered.read_page(page) == page_of(page)

    def test_drain_covers_only_valid_mappings(self):
        system = make_system()
        driver = system.driver
        driver.fault(0, 0, True)
        power = PowerFailureModel(driver)
        report = power.power_fail()
        assert report.pages_drained == 1
        assert report.drained_pages == [0]

    def test_clean_recovery_of_nand_resident_pages(self):
        """Pages already written back are readable regardless."""
        system = make_system()
        system.nand.preload(9, page_of(9))
        power = PowerFailureModel(system.driver)
        power.power_fail()
        assert cold_mount(system, power).read_page(9) == page_of(9)


class TestWPQRace:
    def test_wpq_lost_in_the_race(self):
        """§V-C: WPQ contents may never reach the DRAM cache."""
        system = make_system()
        driver = system.driver
        slot, _ = driver.fault(0, 0, True)
        paddr = system.region.slot_paddr(slot)
        system.dram.poke(paddr, page_of(1))
        wpq = WritePendingQueue()
        wpq.enqueue(paddr, page_of(99)[:64])   # newer data stuck in WPQ
        power = PowerFailureModel(driver, wpq=wpq)
        report = power.power_fail(flush_wpq_first=False)
        assert report.wpq_entries_lost == 1
        recovered = cold_mount(system, power)
        assert recovered.read_page(0) == page_of(1)   # old data won

    def test_wpq_survives_when_adr_wins(self):
        system = make_system()
        driver = system.driver
        slot, _ = driver.fault(0, 0, True)
        paddr = system.region.slot_paddr(slot)
        system.dram.poke(paddr, page_of(1))
        wpq = WritePendingQueue()
        wpq.enqueue(paddr, b"\x63" * 64)
        power = PowerFailureModel(driver, wpq=wpq)
        report = power.power_fail(flush_wpq_first=True)
        assert report.wpq_entries_raced_in == 1
        recovered = cold_mount(system, power)
        assert recovered.read_page(0)[:64] == b"\x63" * 64
        assert recovered.read_page(0)[64:] == page_of(1)[64:]


class TestDrainEdgeCases:
    def test_zero_dirty_pages_drains_nothing(self):
        """An empty cache still drains (and replays) cleanly."""
        system = make_system()
        power = PowerFailureModel(system.driver)
        report = power.power_fail()
        assert report.pages_drained == 0
        assert report.drained_pages == []
        assert not report.interrupted
        replay = cold_mount(system, power).replay()
        assert replay.clean
        assert replay.pages_recovered == 0

    def test_inflight_writeback_is_drained(self):
        """A victim popped from ``slot_to_page`` mid-writeback is only
        reachable through the driver's in-flight journal entry; the
        drain must still persist it (§V-C metadata area)."""
        system = make_system()
        driver = system.driver
        slot, _ = driver.fault(0, 0, True)
        system.dram.poke(system.region.slot_paddr(slot), page_of(7))
        # Freeze the moment inside fault(): mapping gone, ack pending.
        del driver.slot_to_page[slot]
        driver.inflight_writeback = (slot, 0)
        power = PowerFailureModel(driver)
        report = power.power_fail()
        assert report.pages_drained == 1
        recovered = cold_mount(system, power)
        assert recovered.read_page(0) == page_of(7)
        assert recovered.replay().clean

    def test_back_to_back_power_fail_is_idempotent(self):
        """A second power event re-walks the same journal and programs
        the same bytes: same report, same clean replay."""
        system = make_system()
        driver = system.driver
        for page in range(4):
            slot, _ = driver.fault(page, 0, True)
            system.dram.poke(system.region.slot_paddr(slot), page_of(page))
        power = PowerFailureModel(driver)
        first = power.power_fail()
        second = power.power_fail(now_ps=2_000_000)
        assert second.pages_drained == first.pages_drained == 4
        assert second.drained_pages == first.drained_pages
        replay = cold_mount(system, power).replay()
        assert replay.clean and replay.pages_recovered == 4

    def test_interrupted_drain_reports_losses_honestly(self):
        """A battery dying mid-drain leaves undrained journal entries;
        replay must count them lost, never recovered."""
        from repro.errors import PowerLossInterrupt
        from repro.faults import FaultClock

        system = make_system()
        driver = system.driver
        for page in range(5):
            slot, _ = driver.fault(page, 0, True)
            system.dram.poke(system.region.slot_paddr(slot), page_of(page))
        power = PowerFailureModel(driver)
        power.fault_clock = FaultClock().cut_on_visit(3, site="power.drain")
        with pytest.raises(PowerLossInterrupt):
            power.power_fail()
        replay = cold_mount(system, power).replay()
        assert replay.pages_recovered == 2
        assert replay.pages_lost == 3
        assert not replay.clean
