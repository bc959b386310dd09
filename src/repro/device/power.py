"""Power failure: the battery-backed drain and the §V-C domain race.

On power loss "the firmware running on the FPGA reads the DRAM-to-NAND
mappings stored in the 16MB metadata area ... while ignoring the
tRFC-based serialization rule.  Therefore, the valid physical pages
inside the DRAM cache can be stored into the persistent Z-NAND media."

The catch (§V-C): the platform's own ADR flush of the write pending
queue runs *concurrently*, so stores still sitting in the WPQ when the
device snapshots a page may be lost — "the precise persistence domain
with our device will be scaled down to the DRAM cache."  The model
exposes that race so the recovery experiment can demonstrate both the
safe case (data flushed to DRAM before the failure) and the lost-WPQ
case the paper warns about.

The drain is *traced*: it announces itself with a ``power.drain``
record (``active=True/False``) and emits one ``ddr.cmd`` record per
page it moves, under the master name ``nvmc-drain``.  Those transfers
run outside any extended-tRFC window — exactly the rule violation the
battery makes legal — so the :class:`~repro.check.sanitizers.
BusRaceSanitizer` exempts window-escape checking between the drain
markers, and a missing marker (a device driving outside a window with
*no* declared power loss) is still flagged.

Recovery replays the metadata journal: each drained page's CRC is
checked against what Z-NAND actually holds, so a drain cut short by a
dying battery reports its losses honestly instead of pretending the
snapshot completed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.ddr.imc import WritePendingQueue
from repro.kernel.nvdc import NvdcDriver
from repro.units import PAGE_4K


@dataclass
class DrainReport:
    """Outcome of one power-failure drain."""

    pages_drained: int = 0
    wpq_entries_lost: int = 0
    wpq_entries_raced_in: int = 0
    drained_pages: list[int] = field(default_factory=list)
    #: True when the drain was cut short (battery exhausted / second
    #: power event): some mapped pages never reached Z-NAND.
    interrupted: bool = False


@dataclass
class JournalEntry:
    """One slot mapping in the 16 MB metadata area (Fig. 5)."""

    slot: int
    page: int
    crc: int = 0
    drained: bool = False


class MetadataJournal:
    """The drain-relevant view of the 16 MB metadata area.

    At power-fail time the firmware snapshots the slot-to-page mappings
    here, then marks each entry as it lands in Z-NAND (with a CRC of
    the bytes it programmed).  Recovery replays the journal against the
    media and reports what survived.
    """

    def __init__(self) -> None:
        self.entries: dict[int, JournalEntry] = {}

    def snapshot(self, slot_to_page: dict[int, int]) -> None:
        """Record the mappings the drain must persist."""
        self.entries = {slot: JournalEntry(slot=slot, page=page)
                        for slot, page in sorted(slot_to_page.items())}

    def mark_drained(self, slot: int, data: bytes) -> None:
        """Mark a slot's page as programmed, with its content CRC."""
        entry = self.entries[slot]
        entry.crc = zlib.crc32(data)
        entry.drained = True

    @property
    def pending(self) -> int:
        """Entries snapshotted but not yet drained."""
        return sum(1 for e in self.entries.values() if not e.drained)


@dataclass
class RecoveryReport:
    """Outcome of the post-power-loss replay."""

    pages_recovered: int = 0
    pages_lost: int = 0
    lost_pages: list[int] = field(default_factory=list)
    crc_mismatches: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.pages_lost == 0 and not self.crc_mismatches


class PowerFailureModel:
    """Orchestrates the §V-C power-loss sequence on a built system."""

    def __init__(self, driver: NvdcDriver,
                 wpq: WritePendingQueue | None = None) -> None:
        self.driver = driver
        self.wpq = wpq if wpq is not None else WritePendingQueue()
        self.journal = MetadataJournal()
        #: Duck-typed :class:`repro.faults.clock.FaultClock`; consulted
        #: per drained page (site ``"power.drain"``) so campaigns can
        #: cut the battery mid-drain.
        self.fault_clock = None

    def power_fail(self, flush_wpq_first: bool = False,
                   now_ps: int = 0) -> DrainReport:
        """Simulate power loss and the battery-backed drain.

        ``flush_wpq_first=True`` models the lucky interleaving where ADR
        completes before the device snapshots the affected pages;
        ``False`` models the §V-C race where WPQ contents never reach
        the DRAM cache and are lost.

        ``now_ps`` anchors the drain's trace records at the failure
        instant.  The drain is idempotent: a second call re-walks the
        same journal and re-programs the same bytes.
        """
        driver = self.driver
        tracer = driver.tracer
        report = DrainReport()
        if tracer.enabled:
            tracer.emit(now_ps, "power.drain", "battery drain begins",
                        owner=driver.trace_owner, active=True,
                        mapped=len(driver.slot_to_page))
        if flush_wpq_first:
            for addr, data in self.wpq.drain():
                driver.dram.poke(addr, data)
                report.wpq_entries_raced_in += 1
        else:
            report.wpq_entries_lost = len(self.wpq)
            self.wpq.entries.clear()

        # The firmware walks the metadata-area mappings and programs
        # every *valid* cached page to Z-NAND, tRFC rule suspended.
        # The mapping of a victim whose writeback was in flight at the
        # cut is already gone from ``slot_to_page``; the driver journals
        # it in ``inflight_writeback`` until the ack lands, and the
        # metadata area carries that one extra entry so the drain cannot
        # lose a page to an interrupted writeback.
        mappings = dict(driver.slot_to_page)
        inflight = getattr(driver, "inflight_writeback", None)
        if inflight is not None and inflight[0] not in mappings:
            mappings[inflight[0]] = inflight[1]
        self.journal.snapshot(mappings)
        transfer_ps = driver.nvmc.dma.transfer_time_ps(PAGE_4K)
        t = now_ps
        try:
            for slot, entry in self.journal.entries.items():
                if self.fault_clock is not None:
                    self.fault_clock.check(t, "power.drain")
                paddr = driver.region.slot_paddr(slot)
                data = driver.dram.peek(paddr, PAGE_4K)
                driver.nvmc.nand.preload(entry.page, data)
                self.journal.mark_drained(slot, data)
                if tracer.enabled:
                    # The transfer the battery legitimises: a device
                    # master on the bus outside any refresh window.
                    tracer.emit(t, "ddr.cmd",
                                f"drain slot {slot} -> page {entry.page}",
                                owner=driver.trace_owner,
                                master="nvmc-drain", kind="RD",
                                ca_end=t + transfer_ps,
                                dq_start=t, dq_end=t + transfer_ps)
                t += transfer_ps
                report.pages_drained += 1
                report.drained_pages.append(entry.page)
        except Exception:
            report.interrupted = True
            raise
        finally:
            if tracer.enabled:
                tracer.emit(t, "power.drain",
                            "battery drain ends"
                            if not report.interrupted
                            else "battery drain interrupted",
                            owner=driver.trace_owner, active=False,
                            drained=report.pages_drained,
                            pending=self.journal.pending)
        return report


class RecoveredDevice:
    """Post-reboot accessor: reads come from the persistent media."""

    def __init__(self, driver: NvdcDriver,
                 journal: MetadataJournal | None = None) -> None:
        self._nand = driver.nvmc.nand
        self.journal = journal

    def read_page(self, page: int) -> bytes:
        """Read a device page from Z-NAND (ignoring the lost DRAM)."""
        data, _ = self._nand.read_page(page, 0)
        if data is None:
            return bytes(PAGE_4K)
        return data

    def replay(self) -> RecoveryReport:
        """Replay the metadata journal against the media.

        Every journal entry is audited: an undrained entry is a lost
        page (the battery died first); a drained entry whose media CRC
        no longer matches what the drain programmed is corruption.  The
        report is honest by construction — it never counts a page as
        recovered without re-reading it from Z-NAND.
        """
        report = RecoveryReport()
        if self.journal is None:
            return report
        for entry in self.journal.entries.values():
            if not entry.drained:
                report.pages_lost += 1
                report.lost_pages.append(entry.page)
                continue
            data = self.read_page(entry.page)
            if zlib.crc32(data) != entry.crc:
                report.crc_mismatches.append(entry.page)
            else:
                report.pages_recovered += 1
        return report
