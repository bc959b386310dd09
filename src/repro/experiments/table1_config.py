"""Table I — test system configuration, rendered from the live objects.

Not a measurement: the table is regenerated from the same configuration
objects every experiment runs on, so a drift between "what we claim"
and "what we simulate" is impossible.
"""

from __future__ import annotations

from repro.analysis.results import ExperimentRecord
from repro.analysis.tables import render_table
from repro.ddr.spec import DDR4_1600, NVDIMMC_1600
from repro.kernel.memmap import paper_region
from repro.nand.spec import ZNAND_64GB
from repro.units import format_size, gb, ns, to_ns, us


def run() -> ExperimentRecord:
    record = ExperimentRecord("table1", "Test system configuration")
    record.add("main memory tRFC", "ns", 350, to_ns(DDR4_1600.trfc_ps))
    record.add("NVDIMM-C channel tRFC", "ns", 1250,
               to_ns(NVDIMMC_1600.trfc_ps))
    record.add("tREFI", "us", 7.8, NVDIMMC_1600.trefi_ps / us(1))
    record.add("device window", "ns", 900, to_ns(NVDIMMC_1600.extra_trfc_ps))
    region = paper_region()
    record.add("cache slot area", "GiB", 15,
               region.layout.slots_bytes / gb(1))
    record.add("Z-NAND raw capacity", "GiB", 128,
               2 * ZNAND_64GB.capacity_bytes / gb(1))
    record.note("data rate limited to 1600 Mbps by the PoC board height")
    record.claim("every Table I value is within 1 % of the paper "
                 "(pure configuration)",
                 record.worst_ratio_error() < 0.01)
    return record


def render() -> str:
    """The Table I text block."""
    region = paper_region()
    rows = [
        ["CPU", "Intel Xeon Platinum 8168 (modelled: 24-thread host)"],
        ["Main Memory", "2 x 128 GB DDR4 RDIMM @1600, tRFC 350 ns"],
        ["Baseline (/dev/pmem0)", "128 GB DDR4 RDIMM @1600 (XFS-dax)"],
        ["NVDIMM-C (/dev/nvdc0)",
         "128 GB module: 16 GB DRAM cache + 2 x 64 GB Z-NAND, "
         "tRFC 1250 ns (XFS-dax)"],
        ["Reserved region",
         f"{format_size(region.size_bytes)} "
         f"({region.num_slots} cache slots)"],
        ["Kernel parameter",
         region.kernel_parameter(region.base_paddr or 1 << 32,
                                 region.size_bytes)],
        ["Storage", "PM863 SATA SSD, seq read/write 520/475 MB/s"],
    ]
    return render_table(["Hardware", "Description"], rows)
