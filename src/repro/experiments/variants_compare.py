"""§VIII extension — the NVDIMM family, compared in numbers.

Reproduces the argument of the paper's introduction and related-work
section: among NVDIMM-N/F/P and NVDIMM-C, only NVDIMM-C combines SCM
capacity, byte-addressability, persistence and an *unmodified* memory
controller — and its power-failure energy window is bounded by the
cache size, not the device size (unlike NVDIMM-N).
"""

from __future__ import annotations

from repro.analysis.results import ExperimentRecord
from repro.analysis.tables import render_table
from repro.device.variants import (all_variants,
                                   compatible_and_byte_addressable_and_dense,
                                   nvdimm_c, nvdimm_n)
from repro.units import gb


def run() -> ExperimentRecord:
    record = ExperimentRecord("variants", "JEDEC NVDIMM family comparison")
    winners = compatible_and_byte_addressable_and_dense()
    record.add("variants meeting all SCM criteria", "count", 1.0,
               float(len(winners)))
    c_wins = bool(winners) and winners[0].name == "NVDIMM-C"
    record.add("the winner is NVDIMM-C", "bool", 1.0,
               1.0 if c_wins else 0.0)

    n = nvdimm_n()
    c = nvdimm_c()
    record.add("NVDIMM-N hold-up window (16 GB DRAM)", "s", None,
               n.backup_energy_window_s)
    record.add("NVDIMM-C hold-up window (16 GB cache)", "s", None,
               c.backup_energy_window_s)
    capacity_ratio = c.capacity_bytes / n.capacity_bytes
    record.add("capacity ratio C/N at equal DRAM", "x", 7.5, capacity_ratio)
    record.note("NVDIMM-C buys 7.5x the capacity of NVDIMM-N for the "
                "same DRAM and the same hold-up energy class")
    record.claim("exactly one variant meets all SCM criteria (§VIII)",
                 len(winners) == 1)
    record.claim("the winner is NVDIMM-C (§VIII)", c_wins)
    record.claim("capacity ratio C/N within 0.1 of 7.5x at equal DRAM",
                 abs(capacity_ratio - 7.5) < 0.1)
    record.claim("NVDIMM-C's hold-up window is within 1 % of NVDIMM-N's "
                 "or shorter",
                 c.backup_energy_window_s
                 <= n.backup_energy_window_s * 1.01)
    return record


def render() -> str:
    rows = []
    for v in all_variants():
        rows.append([
            v.name,
            "yes" if v.byte_addressable else "no",
            "yes" if v.persistent else "no",
            "stock" if not v.needs_new_imc else "new iMC",
            f"{v.capacity_bytes / gb(1):.0f} GiB",
            f"{v.hit_latency_us:g}",
            "-" if v.miss_latency_us is None else f"{v.miss_latency_us:g}",
            f"{v.backup_energy_window_s:.1f}",
        ])
    return render_table(
        ["variant", "byte-addr", "persist", "iMC", "capacity",
         "hit (us)", "miss (us)", "hold-up (s)"], rows)
