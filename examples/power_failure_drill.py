#!/usr/bin/env python3
"""Power-failure drill: the §V-C persistence story, end to end.

1. An "application" writes records into DAX-mapped pages (through the
   CPU cache) and flushes them — the libpmem discipline.
2. Power fails.  The battery-backed PMIC keeps the device alive while
   the firmware drains every valid DRAM-cache page to Z-NAND, ignoring
   the tRFC rule (§V-C).
3. On "reboot", all flushed data is recovered from the media.
4. The drill then demonstrates the race the paper warns about: a store
   still sitting in the iMC's write pending queue when the drain
   snapshots its page is lost — NVDIMM-C's precise persistence domain
   is the DRAM cache, not the WPQ.
5. Finally the fault-injection campaign runner replays the same story
   adversarially: power cuts scheduled mid-DMA, mid-writeback and
   mid-drain, each verified page-by-page through drain, remount and
   metadata-journal replay (`python -m repro faults run` does this at
   full scale).

Run:  python examples/power_failure_drill.py
"""

from repro.ddr.imc import WritePendingQueue
from repro.device.nvdimmc import NVDIMMCSystem
from repro.device.power import PowerFailureModel, RecoveredDevice
from repro.faults import INJECTORS, run_campaign
from repro.recovery.mount import recover_mount
from repro.units import PAGE_4K, mb


def main() -> None:
    print("=== power-failure drill ===\n")
    system = NVDIMMCSystem(cache_bytes=mb(4), device_bytes=mb(64),
                           with_cpu_cache=True)
    driver, cache = system.driver, system.cpu_cache

    # -- application writes + flush (the persisted set) ---------------------
    records = {}
    for page in range(6):
        slot, _ = driver.fault(page, 0, for_write=True)
        paddr = system.region.slot_paddr(slot)
        payload = (f"record-{page}:".encode() * 200)[:PAGE_4K]
        cache.store(paddr, payload)
        cache.flush_range(paddr, PAGE_4K)     # clflush the page
        cache.sfence()
        driver.mark_write(page)
        records[page] = payload
    print(f"wrote and flushed {len(records)} pages through the CPU cache")

    # -- one unflushed store stuck in the WPQ -------------------------------
    wpq = WritePendingQueue()
    slot0 = driver.page_to_slot[0]
    racy_paddr = system.region.slot_paddr(slot0)
    wpq.enqueue(racy_paddr, b"LATE-STORE" + bytes(54))
    print("plus one store still in the write pending queue (not yet in "
          "the DRAM cache)\n")

    # -- power failure --------------------------------------------------------
    power = PowerFailureModel(driver, wpq=wpq)
    report = power.power_fail(flush_wpq_first=False)
    print(f"POWER LOSS: firmware drained {report.pages_drained} pages to "
          f"Z-NAND, {report.wpq_entries_lost} WPQ entries lost in the race")

    # -- recovery --------------------------------------------------------------
    fresh, _ = recover_mount(system, power.journal)
    recovered = RecoveredDevice(fresh.driver, power.journal)
    intact = sum(1 for page, payload in records.items()
                 if recovered.read_page(page)[:len(payload)] == payload)
    print(f"REBOOT: {intact}/{len(records)} flushed pages recovered intact")
    first = recovered.read_page(0)[:10]
    print(f"page 0 starts with {first!r} — the WPQ store never made it "
          "(the §V-C race)\n")

    print("moral (§V-C): with the DRAM-as-frontend architecture the "
          "reliable persistence domain is the DRAM cache; code must "
          "clflush+sfence before counting anything as durable.\n")

    # -- the adversarial version: scheduled power cuts ----------------------
    print("=== fault campaign: scheduled power cuts ===\n")
    cuts = ["power-loss-dma", "power-loss-writeback", "power-loss-drain"]
    campaign = run_campaign(seed=0, only=cuts)
    for cell in campaign.cells:
        tag = ("recovers" if INJECTORS[cell.fault].recoverable
               else "loses data honestly")
        print(f"{cell.fault:<22} x {cell.workload:<10} ({tag}): "
              f"recovered={cell.recovered} lost={cell.lost} "
              f"violations={cell.violations} "
              f"-> {'ok' if cell.ok else 'FAIL'}")
    print("\nthe cuts mid-DMA and mid-writeback recover every committed "
          "page\n(the in-flight-writeback journal entry covers the "
          "victim); the\nbattery dying mid-drain loses pages and the "
          "replay says so.")


if __name__ == "__main__":
    main()
