"""§V-A — the blast radius of the extended tRFC is one channel.

"On the Intel Skylake platforms, the tRFC time is configurable for each
memory channel.  Only the DRAM populated in the same channel with
NVDIMM-C will be negatively affected by the increased tRFC time.  The
DRAM performance for other memory channels will not experience
performance degradation."

The experiment builds the Table-I memory map — main-memory RDIMMs on
their own channels (stock 350 ns tRFC) and NVDIMM-C's channel at
1250 ns — and measures what each party pays, at the stock and the
quadrupled refresh rate.  Claims: other channels pay nothing, the
co-located DIMM single-digit percent, more at the quadrupled rate.
"""

from __future__ import annotations

from repro.analysis.results import ExperimentRecord
from repro.ddr.imc import RefreshTimeline
from repro.ddr.spec import DDR4_1600, NVDIMMC_1600
from repro.perf.model import HostCostModel
from repro.units import kb, us


def _bw(spec, flavour: str) -> float:
    model = HostCostModel(RefreshTimeline(spec), flavour)
    return model.cached_bandwidth_mb_s(kb(4), is_write=False)


def run() -> ExperimentRecord:
    record = ExperimentRecord(
        "isolation", "Per-channel tRFC: who pays for the window")

    main_stock = _bw(DDR4_1600, "pmem")
    # The main-memory channels keep their stock tRFC even when the
    # NVDIMM-C channel runs the extended value / faster refresh.
    main_while_nvdimmc = _bw(DDR4_1600, "pmem")
    record.add("main memory, NVDIMM-C absent", "MB/s", None, main_stock)
    record.add("main memory, NVDIMM-C present", "MB/s", None,
               main_while_nvdimmc)
    main_cost = (1 - main_while_nvdimmc / main_stock) * 100
    record.add("main-memory degradation", "%", 0.0, main_cost)

    # A hypothetical RDIMM sharing the NVDIMM-C channel pays the
    # extended-tRFC price...
    colocated = _bw(NVDIMMC_1600, "pmem")
    record.add("co-located RDIMM (tRFC 1250 ns)", "MB/s", None, colocated)
    colocated_cost = (1 - colocated / main_stock) * 100
    record.add("co-located degradation", "%", None, colocated_cost)
    # ...and more so at the quadrupled refresh rate.
    colocated4 = _bw(NVDIMMC_1600.with_trefi(us(1.95)), "pmem")
    record.add("co-located @ tREFI4", "MB/s", None, colocated4)
    colocated4_cost = (1 - colocated4 / main_stock) * 100
    record.add("co-located degradation @ tREFI4", "%", None,
               colocated4_cost)
    record.note("matches Intel DCPMM's behaviour the paper cites: every "
                "NVDIMM taxes its own channel, none taxes the others")
    record.claim("main-memory channels lose nothing (§V-A)",
                 main_cost == 0.0)
    record.claim("a co-located RDIMM pays 3-12 % at stock refresh "
                 "(§V-A: only the same channel pays)",
                 3 <= colocated_cost <= 12)
    record.claim("at tREFI4 the co-located RDIMM pays > 2x its "
                 "stock-refresh cost",
                 colocated4_cost > 2 * colocated_cost)
    return record
