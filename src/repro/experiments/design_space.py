"""§III-A / Fig. 1 — the design-space argument, computed.

Why DRAM-as-frontend?  Because an NVMC-as-frontend device must answer a
READ within tRCD + tCL of the ACTIVATE — 26.64 ns at stock DDR4-2400 —
and even with every 5-bit Skylake timing register maxed out (31 clocks
each) the budget only stretches to ~51.6 ns.  This module evaluates
each NVM technology against that budget, reproducing the paper's
conclusion: only STT-MRAM could sit on the bus directly (and its 2019
density, 1 Gb, is too small for SCM), so every dense medium needs the
DRAM-as-frontend architecture.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.results import ExperimentRecord
from repro.analysis.tables import render_table
from repro.ddr.spec import DDR4Spec, GRADE_2400, SpeedGrade
from repro.units import ns, us


@dataclass(frozen=True)
class MediaTechnology:
    """One candidate NVM, with its §III-A characteristics."""

    name: str
    read_latency_ps: int        # array read latency
    density_gbit: float         # max single-die density, 2019
    source: str


#: The §III-A technology survey (public figures the paper cites).
TECHNOLOGIES = [
    MediaTechnology("STT-MRAM", ns(35), 1, "IEDM'19 [14,15]: 1 Gb parts"),
    MediaTechnology("PRAM/3DX", ns(300), 128, "hundreds of ns class [5]"),
    MediaTechnology("ReRAM", ns(1000), 32, "us-class as SCM arrays"),
    MediaTechnology("Z-NAND", us(3), 512, "tens of us device-level [17]"),
    MediaTechnology("NAND (TLC)", us(60), 1024, "tens of thousands of ns"),
]

#: Minimum density for a useful SCM DIMM (the paper: 1 Gb STT-MRAM is
#: "still insufficient"); 8 Gb matches commodity DRAM per-die density.
SCM_MIN_DENSITY_GBIT = 8


def stock_budget_ps(spec: DDR4Spec) -> int:
    """READ response budget on an unmodified controller: tRCD + tCL."""
    return spec.read_latency_ps


def max_programmable_budget_ps(grade: SpeedGrade) -> int:
    """Budget with the 5-bit Skylake timing registers maxed (31 clocks
    each for tRCD and tCL, §III-A)."""
    return 2 * 31 * grade.clock_ps


def run() -> ExperimentRecord:
    record = ExperimentRecord(
        "design_space", "§III-A: who can live at the frontend?")
    spec = DDR4Spec(grade=GRADE_2400)
    stock = stock_budget_ps(spec)
    maxed = max_programmable_budget_ps(GRADE_2400)
    record.add("stock READ budget (DDR4-2400)", "ns", 26.64, stock / 1000)
    record.add("maxed 5-bit registers budget", "ns", 51.615, maxed / 1000)

    frontend_capable = []
    for tech in TECHNOLOGIES:
        fits = tech.read_latency_ps <= maxed
        if fits:
            frontend_capable.append(tech)
        record.add(f"{tech.name} fits frontend", "bool",
                   1.0 if tech.name == "STT-MRAM" else 0.0,
                   1.0 if fits else 0.0)
    capable = {tech.name for tech in frontend_capable}
    dense_enough = [t for t in frontend_capable
                    if t.density_gbit >= SCM_MIN_DENSITY_GBIT]
    record.add("frontend-capable AND SCM-dense", "count", 0,
               float(len(dense_enough)))
    record.note("paper's conclusion: nothing is both fast enough for "
                "the synchronous frontend and dense enough for SCM -> "
                "DRAM-as-frontend (Fig. 1b) is forced")
    record.claim("stock READ budget within 0.3 ns of 26.64 ns (§III-A)",
                 abs(stock / 1000 - 26.64) < 0.3)
    record.claim("maxed-register budget within 0.5 ns of 51.615 ns "
                 "(§III-A)",
                 abs(maxed / 1000 - 51.615) < 0.5)
    record.claim("STT-MRAM fits the frontend (§III-A)",
                 "STT-MRAM" in capable)
    record.claim("Z-NAND does not fit the frontend (§III-A)",
                 "Z-NAND" not in capable)
    record.claim("no medium is both frontend-capable and SCM-dense "
                 "(§III-A: DRAM-as-frontend is forced)",
                 len(dense_enough) == 0)
    return record


def render() -> str:
    spec = DDR4Spec(grade=GRADE_2400)
    stock = stock_budget_ps(spec)
    maxed = max_programmable_budget_ps(GRADE_2400)
    rows = []
    for tech in TECHNOLOGIES:
        verdict = ("frontend OK" if tech.read_latency_ps <= maxed
                   else "needs DRAM frontend")
        if (tech.read_latency_ps <= maxed
                and tech.density_gbit < SCM_MIN_DENSITY_GBIT):
            verdict += " (but too small for SCM)"
        rows.append([tech.name, f"{tech.read_latency_ps / 1000:g}",
                     f"{tech.density_gbit:g}", verdict])
    header = (f"READ budget: stock {stock / 1000:.2f} ns, "
              f"maxed registers {maxed / 1000:.2f} ns\n")
    return header + render_table(
        ["media", "read (ns)", "density (Gb)", "verdict"], rows)
