"""§VIII extension — arbitration schemes compared quantitatively.

Includes the paper's own §V-A ceiling arithmetic (500.8 MB/s per 4 KB
window at stock tREFI, 1001.6 at tREFI2) as anchors, then contrasts the
tRFC scheme against the related-work alternatives on device bandwidth,
host impact, capacity efficiency and progress guarantees.
"""

from __future__ import annotations

from repro.analysis.results import ExperimentRecord
from repro.analysis.tables import render_table
from repro.ddr.spec import NVDIMMC_1600
from repro.device.arbitration import TRFCScheme, compare
from repro.units import us


def run() -> ExperimentRecord:
    record = ExperimentRecord(
        "arbitration", "Arbitration schemes for the shared bus")

    stock = TRFCScheme().device_ceiling_mb_s()
    record.add("tRFC device ceiling @ tREFI", "MB/s", 500.8, stock)
    doubled = TRFCScheme(
        NVDIMMC_1600.with_trefi(us(3.9))).device_ceiling_mb_s()
    record.add("tRFC device ceiling @ tREFI2", "MB/s", 1001.6, doubled)

    profiles = compare()
    by_name = {p.name: p for p in profiles}
    trfc = by_name["tRFC windows (NVDIMM-C)"]
    dummy = by_name["dummy-access (Netlist)"]
    preempt = by_name["priority-preempt (LPDDR3 storage)"]

    record.add("tRFC capacity efficiency", "frac", 1.0,
               trfc.capacity_efficiency)
    record.add("dummy-access capacity efficiency", "frac", 0.5,
               dummy.capacity_efficiency)
    progress = sum(p.guaranteed_device_progress for p in profiles)
    record.add("schemes with guaranteed device progress", "count", 1.0,
               float(progress))
    record.add("preempt ceiling at 90% host load", "MB/s", None,
               preempt.device_ceiling_mb_s)
    record.note("only the tRFC scheme keeps full capacity AND a "
                "progress guarantee — the §VIII argument, in numbers")
    record.claim("tRFC device ceiling at tREFI within 1.5 of 500.8 MB/s "
                 "(§V-A)", abs(stock - 500.8) < 1.5)
    record.claim("tRFC device ceiling at tREFI2 within 3.0 of 1001.6 MB/s "
                 "(§V-A)", abs(doubled - 1001.6) < 3.0)
    record.claim("dummy access keeps half the capacity (§VIII)",
                 dummy.capacity_efficiency == 0.5)
    record.claim("tRFC windows keep the full capacity (§VIII)",
                 trfc.capacity_efficiency == 1.0)
    record.claim("only one scheme guarantees device progress (§VIII)",
                 progress == 1)
    return record


def render() -> str:
    rows = []
    for p in compare():
        rows.append([p.name, f"{p.device_ceiling_mb_s:.0f}",
                     f"{p.host_bandwidth_share:.2f}",
                     f"{p.capacity_efficiency:.2f}",
                     "yes" if p.guaranteed_device_progress else "no"])
    return render_table(
        ["scheme", "device MB/s", "host share", "capacity", "progress"],
        rows)
