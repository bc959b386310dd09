"""End-to-end integration tests across the full stack.

Application -> CPUCore -> MMU (DAX fault) -> filesystem ->
nvdc driver -> CP protocol -> NVMC -> FTL -> Z-NAND, and back —
with eviction pressure, timing, and power failure in the loop.
"""

import random


from repro.cpu.core import CPUCore
from repro.cpu.mmu import MMU
from repro.device.nvdimmc import NVDIMMCSystem
from repro.device.power import PowerFailureModel, RecoveredDevice
from repro.kernel.fs import DaxFilesystem
from repro.nvmc.fsm import FirmwareModel
from repro.recovery.mount import recover_mount
from repro.units import PAGE_4K, mb


def build_stack(cache_mb=1, device_mb=32, **kwargs):
    defaults = dict(firmware=FirmwareModel(step_ps=0),
                    with_cpu_cache=True, conservative_dirty=False)
    defaults.update(kwargs)
    system = NVDIMMCSystem(cache_bytes=mb(cache_mb),
                           device_bytes=mb(device_mb), **defaults)
    fs = DaxFilesystem(system.driver)
    mmu = MMU()
    core = CPUCore(0, mmu, system.cpu_cache)
    return system, fs, mmu, core


class TestApplicationView:
    def test_write_read_through_the_whole_stack(self):
        system, fs, mmu, core = build_stack()
        handle = fs.create("db", mb(2))
        fs.mmap(handle, mmu, vaddr=0x10000000)
        payload = bytes(range(256)) * 4
        for i in range(20):
            core.store(0x10000000 + i * PAGE_4K, payload)
        for i in range(20):
            assert core.load(0x10000000 + i * PAGE_4K,
                             len(payload)) == payload

    def test_data_survives_eviction_round_trip(self):
        """Write more pages than the cache holds; early pages must come
        back from Z-NAND with their exact contents."""
        system, fs, mmu, core = build_stack(cache_mb=1)
        nslots = system.region.num_slots
        handle = fs.create("big", (nslots + 64) * PAGE_4K)
        base = 0x20000000
        fs.mmap(handle, mmu, vaddr=base)
        rng = random.Random(5)
        contents = {}
        for i in range(nslots + 40):
            payload = bytes([rng.randrange(256)]) * 128
            core.store(base + i * PAGE_4K, payload)
            # Persist the page so the eviction writeback sees it.
            core.clflush_range(base + i * PAGE_4K, 128)
            core.sfence()
            system.driver.mark_write(i)
            contents[i] = payload
        assert system.driver.stats.evictions > 0
        mmu.flush_tlb()
        for i, payload in contents.items():
            assert core.load(base + i * PAGE_4K, 128) == payload, i

    def test_evicted_page_fault_brings_it_back(self):
        """After eviction the PTE is stale; re-access must fault and
        remap (the Fig. 6 loop, second time around)."""
        system, fs, mmu, core = build_stack(cache_mb=1)
        nslots = system.region.num_slots
        handle = fs.create("f", (nslots + 8) * PAGE_4K)
        fs.mmap(handle, mmu, vaddr=0x30000000)
        core.store(0x30000000, b"first-page")
        core.clflush_range(0x30000000, 64)
        core.sfence()
        system.driver.mark_write(0)
        for i in range(1, nslots + 4):
            core.store(0x30000000 + i * PAGE_4K, b"x")
        assert system.driver.lookup(0) is None   # evicted
        # The kernel would shoot the PTE down on eviction; model that.
        mmu.unmap_page(0x30000000 // PAGE_4K)
        faults_before = mmu.stats.faults
        assert core.load(0x30000000, 10) == b"first-page"
        assert mmu.stats.faults == faults_before + 1


class TestTimingConsistency:
    def test_miss_time_flows_into_fs_clock(self):
        system, fs, mmu, core = build_stack()
        handle = fs.create("t", mb(1))
        fs.mmap(handle, mmu, vaddr=0x40000000)
        core.load(0x40000000, 8)
        first_fault_time = fs.now_ps
        core.load(0x40000000 + PAGE_4K, 8)
        assert fs.now_ps > first_fault_time

    def test_windows_accounting_matches_operations(self):
        system, _, _, _ = build_stack()
        driver = system.driver
        for page in range(10):
            driver.fault(page, system.nvmc.ready_ps, for_write=False)
        total_ops = driver.stats.cachefills + driver.stats.writebacks
        # Ideal firmware: exactly 3 windows per CP operation (§V-A).
        assert driver.stats.windows_total == 3 * total_ops


class TestCrashDuringActivity:
    def test_power_failure_mid_workload_preserves_flushed_data(self):
        system, fs, mmu, core = build_stack(cache_mb=2)
        handle = fs.create("wal", mb(1))
        base = 0x50000000
        fs.mmap(handle, mmu, vaddr=base)
        committed = {}
        for i in range(30):
            payload = f"commit-{i}".encode()
            core.store(base + i * PAGE_4K, payload)
            if i % 2 == 0:    # only even records are "committed"
                core.clflush_range(base + i * PAGE_4K, len(payload))
                core.sfence()
                system.driver.mark_write(handle.start_page + i)
                committed[i] = payload
        power = PowerFailureModel(system.driver)
        power.power_fail()
        fresh, _ = recover_mount(system, power.journal)
        recovered = RecoveredDevice(fresh.driver, power.journal)
        for i, payload in committed.items():
            page = handle.start_page + i
            assert recovered.read_page(page)[:len(payload)] == payload

    def test_gc_pressure_does_not_corrupt(self):
        """Hammer overwrites until the FTL garbage-collects; data must
        stay exact through relocations."""
        system, _, _, _ = build_stack(cache_mb=1, device_mb=8)
        driver = system.driver
        nslots = system.region.num_slots
        rng = random.Random(9)
        reference = {}
        t = 0
        npages = min(driver.num_pages, nslots * 3)
        for i in range(nslots * 6):
            page = rng.randrange(npages)
            payload = bytes([i % 256]) * PAGE_4K
            t = max(t, system.nvmc.ready_ps)
            t = driver.write_page(page, payload, t)
            reference[page] = payload
        assert system.nand.ftl.stats.gc_invocations >= 0
        for page, payload in reference.items():
            data, t = driver.read_page(page, max(t, system.nvmc.ready_ps))
            assert data == payload, page
