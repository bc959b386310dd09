"""Patrol-scrub tests: idle-window discipline and the ScrubSanitizer."""

import pytest

from repro.check.sanitizers import ScrubSanitizer
from repro.device.nvdimmc import NVDIMMCSystem
from repro.health.scrub import ScrubConfig
from repro.sim.trace import TraceRecord
from repro.units import PAGE_4K, kb, mb, us


def _written_system(pages: int = 96, **kwargs) -> tuple[NVDIMMCSystem, int]:
    """A small system with ``pages`` committed pages; returns (sys, t).

    The default footprint exceeds the 64-slot cache, so evictions push
    dirty pages to the Z-NAND and the patrol's NAND leg has mapped
    pages to verify.
    """
    system = NVDIMMCSystem(cache_bytes=kb(256), device_bytes=mb(4), **kwargs)
    t = round(us(1))
    for page in range(pages):
        t = system.driver.write_page(page, bytes([page % 256]) * PAGE_4K, t)
    return system, t


class TestPatrol:
    def test_idle_windows_do_real_work(self):
        system, t = _written_system()
        scrubber = system.scrubber
        trefi = system.spec.trefi_ps
        idle_from = max(t, system.nvmc.ready_ps)
        used = scrubber.patrol(idle_from, idle_from + 24 * trefi)
        stats = scrubber.stats
        assert used > 0 and used == stats.windows_used
        assert stats.windows_scanned >= stats.windows_used
        assert stats.dram_slots_refreshed > 0
        assert stats.nand_pages_verified > 0

    def test_busy_windows_are_skipped_whole(self):
        system, t = _written_system()
        scrubber = system.scrubber
        trefi = system.spec.trefi_ps
        idle_from = max(t, system.nvmc.ready_ps)
        until = idle_from + 16 * trefi
        system.nvmc.ready_ps = until  # the host owns every window
        used = scrubber.patrol(idle_from, until)
        assert used == 0
        assert scrubber.stats.windows_used == 0
        assert scrubber.stats.windows_busy == scrubber.stats.windows_scanned
        assert scrubber.stats.windows_busy > 0

    def test_worn_blocks_are_proactively_relocated(self):
        # wear_relocate_fraction=0 marks every verified page decaying.
        system, t = _written_system(
            scrub_config=ScrubConfig(wear_relocate_fraction=0.0))
        scrubber = system.scrubber
        trefi = system.spec.trefi_ps
        idle_from = max(t, system.nvmc.ready_ps)
        scrubber.patrol(idle_from, idle_from + 24 * trefi)
        assert scrubber.stats.relocations > 0
        assert system.health.counters.get("scrub-relocate") > 0

    def test_patrol_is_invisible_to_later_reads(self):
        system, t = _written_system(pages=24)
        trefi = system.spec.trefi_ps
        idle_from = max(t, system.nvmc.ready_ps)
        system.scrubber.patrol(idle_from, idle_from + 24 * trefi)
        t = max(idle_from + 24 * trefi, system.nvmc.ready_ps)
        for page in range(24):
            data, t = system.driver.read_page(page, t)
            assert data == bytes([page % 256]) * PAGE_4K


def _scrub_record(window: int, *, owner: str = "nvmc-t",
                  win_start: int = 10_000, win_end: int = 20_000,
                  start: int | None = None,
                  end: int | None = None) -> TraceRecord:
    return TraceRecord(
        time_ps=win_start, category="health.scrub", message="patrol window",
        fields={"owner": owner, "window": window, "win_start": win_start,
                "win_end": win_end,
                "start_ps": win_start if start is None else start,
                "end_ps": win_end if end is None else end,
                "slots": 1, "pages": 1, "relocated": 0})


def _dma_record(window: int, *, owner: str = "nvmc-t") -> TraceRecord:
    """One CP op's ``nvmc.dma`` record, its fill in ``window``."""
    carried = tuple((kind, index, nbytes, nbytes, -1, 0, 900, 100)
                    for kind, index, nbytes in (("poll", window - 2, 64),
                                                ("fill", window, 4096),
                                                ("ack", window + 2, 64)))
    return TraceRecord(time_ps=0, category="nvmc.dma", message="burst",
                       fields={"owner": owner, "cmd": 1, "budget": 4096,
                               "windows": carried})


class TestScrubSanitizer:
    def test_clean_stream_has_no_violations(self):
        sanitizer = ScrubSanitizer()
        sanitizer.observe(_dma_record(3))
        sanitizer.observe(_scrub_record(4))
        sanitizer.observe(_dma_record(5))
        assert sanitizer.violations == []

    def test_bus_span_escaping_its_window_is_flagged(self):
        sanitizer = ScrubSanitizer()
        sanitizer.observe(_scrub_record(4, end=25_000))  # past win_end
        assert [v.rule for v in sanitizer.violations] == \
            ["scrub-window-escape"]

    @pytest.mark.parametrize("scrub_first", [True, False])
    def test_shared_window_is_a_collision_either_order(self, scrub_first):
        sanitizer = ScrubSanitizer()
        records = [_scrub_record(7), _dma_record(7)]
        if not scrub_first:
            records.reverse()
        for record in records:
            sanitizer.observe(record)
        assert [v.rule for v in sanitizer.violations] == ["scrub-collision"]

    def test_owners_do_not_cross_contaminate(self):
        sanitizer = ScrubSanitizer()
        sanitizer.observe(_dma_record(9, owner="nvmc-a"))
        sanitizer.observe(_scrub_record(9, owner="nvmc-b"))
        assert sanitizer.violations == []
