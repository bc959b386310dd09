"""The block-device layer with the fsdax ``device_access`` hook.

§IV-B: the nvdc driver "allocates a block device of 128GB ... to the
/dev directory" and "implements a block device operation named
device_access for supporting fsdax.  When an application accesses a
block on our device, the kernel layer of the DAX-aware filesystem calls
the device_access function to retrieve a virtual address of that
block."

Sectors are 512 B; NAND pages are 4 KB; the driver converts "the block
device sector (aligned to 512 bytes) number to the NAND page
(4KB-aligned) number by assuming a direct mapping."
"""

from __future__ import annotations

import abc
from typing import NamedTuple

from repro.errors import KernelError
from repro.units import PAGE_4K

SECTOR_BYTES = 512
SECTORS_PER_PAGE = PAGE_4K // SECTOR_BYTES


def sector_to_page(sector: int) -> int:
    """Direct-mapped sector -> 4 KB device page conversion (§IV-B)."""
    return sector // SECTORS_PER_PAGE


def page_to_sector(page: int) -> int:
    return page * SECTORS_PER_PAGE


class DaxMapping(NamedTuple):
    """Result of ``device_access``: where the block lives right now."""

    pfn: int                 # page frame number of the backing DRAM page
    paddr: int               # physical byte address of the page
    end_ps: int              # when the mapping became available


class BlockDevice(abc.ABC):
    """A /dev node exposing both block I/O and the DAX hook."""

    def __init__(self, name: str, capacity_bytes: int) -> None:
        if capacity_bytes % PAGE_4K:
            raise KernelError("device capacity must be 4 KB aligned")
        self.name = name
        self.capacity_bytes = capacity_bytes

    @property
    def num_sectors(self) -> int:
        return self.capacity_bytes // SECTOR_BYTES

    @property
    def num_pages(self) -> int:
        return self.capacity_bytes // PAGE_4K

    def check_sector(self, sector: int) -> None:
        if not 0 <= sector < self.num_sectors:
            raise KernelError(
                f"{self.name}: sector {sector} beyond device end")

    # -- the fsdax entry point (§II-A / §IV-B) ------------------------------------

    @abc.abstractmethod
    def device_access(self, sector: int, now_ps: int,
                      for_write: bool) -> DaxMapping:
        """Make the page holding ``sector`` byte-addressable.

        Returns the PFN/physical address the filesystem will map into
        the faulting process, plus the simulated completion time (which
        includes any cachefill/writeback the driver had to perform).
        """

    # -- conventional block I/O (used by file copy through the page cache) ----------

    @abc.abstractmethod
    def read_page(self, page: int, now_ps: int) -> tuple[bytes, int]:
        """Read one 4 KB device page."""

    @abc.abstractmethod
    def write_page(self, page: int, data: bytes, now_ps: int) -> int:
        """Write one 4 KB device page."""
