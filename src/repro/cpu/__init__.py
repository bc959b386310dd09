"""Host CPU model: caches with explicit flush semantics, MMU, cores.

The pieces of the x86 host that the NVDIMM-C software stack leans on:

* :mod:`repro.cpu.cache` — a cacheline-granularity cache with
  ``clflush`` / ``clwb`` / ``invalidate`` / ``sfence`` semantics.  The
  §V-B coherence hazards (device DMA is invisible to the coherence
  fabric) are reproduced — and fixed — at this level.
* :mod:`repro.cpu.mmu` — page tables, a TLB, and the page-fault hook
  that the DAX filesystem layer registers into (§II-A).
* :mod:`repro.cpu.core` — hardware-thread contexts issuing loads and
  stores through the MMU and cache.
"""

from repro.cpu.cache import CPUCache, MemoryBackend
from repro.cpu.core import CPUCore
from repro.cpu.mmu import MMU, PageFault, PageTableEntry

__all__ = [
    "CPUCache",
    "MemoryBackend",
    "CPUCore",
    "MMU",
    "PageFault",
    "PageTableEntry",
]
