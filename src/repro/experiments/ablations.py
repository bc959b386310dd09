"""§VII-C ablations — the paper's improvement roadmap, quantified.

The discussion section lists five fixes for the PoC's Uncached
performance; each is a switch in this codebase, so the what-ifs the
authors could only argue for can be measured:

1. eliminating the CPU-controlled data paths (ASIC FSM: zero firmware
   lag);
2. multiple CP commands in flight (approximated by the merged command —
   the PoC's mailbox depth stays 1 but two operations share its
   poll/ack round trips);
3. 8 KB per refresh window (feasibility + margin from the DMA model);
4. merging writeback+cachefill into one command;
5. faster Z-NAND PHY (500 MHz instead of the PoC's 50 MHz).

Plus the §IV-B eviction-policy study (LRC vs LRU vs CLOCK) and precise
vs conservative dirty tracking.  Claims: each step helps, cumulatively
~2x; CP depth 2 reaches its two-windows-per-miss ceiling and deeper
queues add nothing; 8 KB fits the window; LRU is no worse than LRC.
"""

from __future__ import annotations

from repro.analysis.results import ExperimentRecord
from repro.ddr.imc import RefreshTimeline
from repro.ddr.spec import NVDIMMC_1600
from repro.experiments.common import asic_firmware, build_uncached_nvdc
from repro.nvmc.dma import DMAEngine
from repro.units import PAGE_4K, kb
from repro.workloads.tpch import run_all_queries


def _uncached_bandwidth(nops: int = 80, **system_kwargs) -> float:
    """Steady-state uncached 4 KB read bandwidth of a configuration."""
    system, first_page, t = build_uncached_nvdc(extra_pages=nops + 8,
                                                **system_kwargs)
    start = t
    for i in range(nops):
        t = system.op((first_page + i) * PAGE_4K, kb(4), False, t)
    return nops * kb(4) / 1e6 / ((t - start) / 1e12)


def run() -> ExperimentRecord:
    record = ExperimentRecord("ablations", "§VII-C roadmap, quantified")

    poc = _uncached_bandwidth()
    record.add("PoC uncached baseline", "MB/s", 57.3, poc)

    asic = _uncached_bandwidth(firmware=asic_firmware())
    record.add("(1) ASIC FSM (no firmware lag)", "MB/s", None, asic)

    fast_phy = _uncached_bandwidth(firmware=asic_firmware(),
                                   nand_phy_mhz=500)
    record.add("(1+5) ASIC + 500 MHz PHY", "MB/s", None, fast_phy)

    merged = _uncached_bandwidth(firmware=asic_firmware(),
                                 nand_phy_mhz=500,
                                 use_merged_commands=True)
    record.add("(1+4+5) + merged WB/fill command", "MB/s", None, merged)

    precise = _uncached_bandwidth(firmware=asic_firmware(),
                                  nand_phy_mhz=500,
                                  conservative_dirty=False)
    record.add("(1+5) + precise dirty tracking", "MB/s", None, precise)

    record.add("roadmap speedup over PoC", "x", None, merged / poc)

    # (2): CP queue depth > 1 — the pipelined-NVMC model.
    from repro.nvmc.pipeline import queue_depth_sweep
    by_depth = dict(queue_depth_sweep(depths=(1, 2, 4, 8),
                                      firmware_step_ps=0))
    for depth in (1, 2, 4):
        record.add(f"(2) pipelined NVMC, CP depth {depth}", "MB/s",
                   None, by_depth[depth])
    record.add("(2) depth-2 ceiling (2 windows/miss)", "MB/s", None,
               PAGE_4K / 1e6 / (2 * 7.8e-6))

    # (3): 8 KB per window — time feasibility from the DMA model.
    timeline = RefreshTimeline(NVDIMMC_1600)
    window = timeline.window(0)
    dma8 = DMAEngine(NVDIMMC_1600, window_bytes=kb(8))
    need = dma8.transfer_time_ps(kb(8))
    record.add("(3) 8 KB transfer time in 900 ns window", "ns", None,
               need / 1000)
    fits = dma8.fits_in_window(kb(8), window)
    record.add("(3) 8 KB fits the window", "bool", 1.0,
               1.0 if fits else 0.0)

    # Eviction-policy study on TPC-H (geomean slowdown per policy).
    geomean = {}
    for policy in ("lrc", "lru", "clock"):
        results = run_all_queries(25_600, 4_096, policy=policy)
        geo = 1.0
        for r in results:
            geo *= r.slowdown
        geomean[policy] = geo ** (1 / len(results))
        record.add(f"TPC-H geomean slowdown [{policy}]", "x", None,
                   geomean[policy])
    record.note("LRU/CLOCK beating LRC confirms the §IV-B / §VII-B5 "
                "diagnosis that LRC thrash drives the Fig. 11 outliers")

    record.claim("each roadmap step raises uncached bandwidth: PoC < (1) "
                 "< (1+5) < (1+4+5) (§VII-C)",
                 poc < asic < fast_phy < merged)
    record.claim("the roadmap (1+4+5) is >= 1.7x the PoC (§VII-C: ~2x)",
                 merged / poc >= 1.7)
    record.claim("(2) CP depth 2 within 5 % of the 262.6 MB/s "
                 "two-windows-per-miss ceiling",
                 abs(by_depth[2] - 262.6) / 262.6 < 0.05)
    record.claim("(2) CP depth 2 is > 1.62x depth 1 (0.9 x 1.8)",
                 by_depth[2] > 1.8 * by_depth[1] * 0.9)
    record.claim("(2) CP depth 8 adds < 2 % over depth 2 (the ceiling "
                 "holds)",
                 by_depth[8] <= by_depth[2] * 1.02)
    record.claim("(3) 8 KB fits the 900 ns window (§VII-C item 3)", fits)
    record.claim("(3) 8 KB transfers in < 900 ns", need / 1000 < 900)
    record.claim("LRU is no worse than LRC on TPC-H geomean slowdown "
                 "(§IV-B)",
                 geomean["lru"] <= geomean["lrc"])
    return record
