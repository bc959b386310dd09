"""MMU: page tables, a TLB, and the registrable fault handler.

§II-A: a DAX access "involves a page fault exception if the
corresponding virtual-to-physical mapping is not residing in the MMU
mappings"; the kernel routes the fault to the handler the device driver
registered.  This module supplies exactly that machinery: 4 KB pages, a
small LRU TLB in front of the page table, and per-range fault handlers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.errors import KernelError
from repro.units import PAGE_4K


class PageFault(Exception):
    """Raised internally when no PTE covers a virtual address.

    Escapes to the caller only when no registered handler resolves the
    fault (a SIGSEGV, in effect).
    """

    def __init__(self, vaddr: int) -> None:
        super().__init__(f"page fault at {vaddr:#x}")
        self.vaddr = vaddr


@dataclass
class PageTableEntry:
    """One 4 KB mapping."""

    vpn: int
    pfn: int
    writable: bool = True
    dirty: bool = False
    accessed: bool = False


#: A fault handler takes the faulting vaddr and returns True if it
#: established a mapping (the access is then retried).
FaultHandler = Callable[[int], bool]


@dataclass
class MMUStats:
    tlb_hits: int = 0
    tlb_misses: int = 0
    page_walks: int = 0
    faults: int = 0
    unresolved_faults: int = 0


class MMU:
    """Per-process address translation with a TLB and DAX fault hooks."""

    def __init__(self, tlb_entries: int = 64) -> None:
        self.page_table: dict[int, PageTableEntry] = {}
        self._tlb: OrderedDict[int, PageTableEntry] = OrderedDict()
        self.tlb_entries = tlb_entries
        self._handlers: list[tuple[int, int, FaultHandler]] = []
        self.stats = MMUStats()

    # -- mapping management --------------------------------------------------------

    def map_page(self, vpn: int, pfn: int, writable: bool = True) -> None:
        """Install a PTE (driver/filesystem side)."""
        self.page_table[vpn] = PageTableEntry(vpn=vpn, pfn=pfn,
                                              writable=writable)

    def unmap_page(self, vpn: int) -> None:
        """Remove a PTE and shoot down its TLB entry."""
        self.page_table.pop(vpn, None)
        self._tlb.pop(vpn, None)

    def pte(self, vpn: int) -> PageTableEntry | None:
        return self.page_table.get(vpn)

    def register_fault_handler(self, vaddr_start: int, length: int,
                               handler: FaultHandler) -> None:
        """Register a handler for faults in [start, start+length)."""
        self._handlers.append((vaddr_start, vaddr_start + length, handler))

    # -- translation -------------------------------------------------------------------

    def translate(self, vaddr: int, write: bool = False) -> int:
        """Virtual to physical, faulting into handlers as needed."""
        vpn = vaddr // PAGE_4K
        entry = self._tlb.get(vpn)
        if entry is not None:
            self.stats.tlb_hits += 1
            self._tlb.move_to_end(vpn)
        else:
            self.stats.tlb_misses += 1
            entry = self._walk(vpn)
            if entry is None:
                entry = self._fault(vaddr)
            self._tlb_fill(vpn, entry)
        if write and not entry.writable:
            raise KernelError(f"write to read-only page at {vaddr:#x}")
        entry.accessed = True
        if write:
            entry.dirty = True
        return entry.pfn * PAGE_4K + (vaddr % PAGE_4K)

    def _walk(self, vpn: int) -> PageTableEntry | None:
        self.stats.page_walks += 1
        return self.page_table.get(vpn)

    def _fault(self, vaddr: int) -> PageTableEntry:
        """Dispatch a fault to the registered handlers (§II-A flow)."""
        self.stats.faults += 1
        for start, end, handler in self._handlers:
            if start <= vaddr < end:
                if handler(vaddr):
                    entry = self.page_table.get(vaddr // PAGE_4K)
                    if entry is None:
                        raise KernelError(
                            "fault handler claimed success but installed "
                            f"no PTE for {vaddr:#x}")
                    return entry
        self.stats.unresolved_faults += 1
        raise PageFault(vaddr)

    def _tlb_fill(self, vpn: int, entry: PageTableEntry) -> None:
        self._tlb[vpn] = entry
        if len(self._tlb) > self.tlb_entries:
            self._tlb.popitem(last=False)

    def flush_tlb(self) -> None:
        """Full TLB shootdown."""
        self._tlb.clear()

    @property
    def mapped_pages(self) -> int:
        return len(self.page_table)
