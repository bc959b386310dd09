"""The ``memmap=nn$ss`` reserved region and its internal layout.

§IV-B: "we use the memmap parameter to mark the 16GB DRAM address space
as a reserved region so that there are no accesses to the DRAM from
applications and the OS."  Fig. 5 carves the region into:

* the **CP area** — the first 4 KB physical page (driver <-> NVMC
  mailbox);
* the **metadata area** — 16 MB holding the NAND-page <-> DRAM-slot
  mappings (read by the device's power-failure drain, §V-C);
* the **cache slots** — the rest, managed as a fully associative cache
  of 4 KB lines.

The paper's 16 GB module yields "15 GB for cache slots" after layout and
driver reserves; the model reproduces that with a configurable slot
fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError
from repro.units import PAGE_4K, gb


@dataclass(frozen=True)
class RegionLayout:
    """Byte offsets of the Fig. 5 areas within the reserved region."""

    cp_offset: int
    cp_bytes: int
    metadata_offset: int
    metadata_bytes: int
    slots_offset: int
    slots_bytes: int

    @property
    def num_slots(self) -> int:
        return self.slots_bytes // PAGE_4K


class ReservedRegion:
    """A physically contiguous region excluded from normal OS usage."""

    #: Metadata fraction of the region (§V-C: a 16 MB metadata area for
    #: the 16 GB module = 1/1024; the mappings scale with the slots).
    METADATA_FRACTION = 1024

    def __init__(self, base_paddr: int, size_bytes: int,
                 slot_fraction: float = 15 / 16) -> None:
        metadata_bytes = max(
            PAGE_4K,
            (size_bytes // self.METADATA_FRACTION // PAGE_4K) * PAGE_4K)
        if size_bytes < metadata_bytes + 2 * PAGE_4K:
            raise KernelError(
                f"reserved region of {size_bytes} B too small for layout")
        if base_paddr % PAGE_4K:
            raise KernelError("reserved region must be page-aligned")
        if not 0 < slot_fraction <= 1:
            raise KernelError(f"bad slot fraction {slot_fraction}")
        self.base_paddr = base_paddr
        self.size_bytes = size_bytes
        # The paper's driver uses 15 of the 16 GB for slots; the rest is
        # CP + metadata + driver working space.
        usable = size_bytes - PAGE_4K - metadata_bytes
        slots_bytes = (int(usable * slot_fraction) // PAGE_4K) * PAGE_4K
        self.layout = RegionLayout(
            cp_offset=0, cp_bytes=PAGE_4K,
            metadata_offset=PAGE_4K, metadata_bytes=metadata_bytes,
            slots_offset=PAGE_4K + metadata_bytes,
            slots_bytes=slots_bytes)

    # -- address arithmetic ---------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return self.layout.num_slots

    def slot_paddr(self, slot: int) -> int:
        """Physical byte address of cache slot ``slot``."""
        layout = self.layout
        if not 0 <= slot < layout.slots_bytes // PAGE_4K:
            raise KernelError(f"slot {slot} out of range "
                              f"(region has {self.num_slots})")
        return self.base_paddr + layout.slots_offset + slot * PAGE_4K

    def slot_pfn(self, slot: int) -> int:
        """Page frame number of a cache slot."""
        return self.slot_paddr(slot) // PAGE_4K

    def contains(self, paddr: int) -> bool:
        return self.base_paddr <= paddr < self.base_paddr + self.size_bytes

    @staticmethod
    def kernel_parameter(base_paddr: int, size_bytes: int) -> str:
        """The boot-line string that would reserve this region."""
        return f"memmap={size_bytes}${base_paddr:#x}"


#: The paper's configuration: a 16 GB module reserved in one piece.
def paper_region(base_paddr: int = gb(4)) -> ReservedRegion:
    """The Table-I reserved region: 16 GB with ~15 GB of slots."""
    return ReservedRegion(base_paddr=base_paddr, size_bytes=gb(16))
