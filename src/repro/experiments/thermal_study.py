"""§II-B extension — what module temperature does to NVDIMM-C.

Above 85°C JEDEC halves tREFI.  For a normal DIMM that is pure
overhead; for NVDIMM-C it *doubles the device windows* — the same knob
Fig. 12/13 sweep deliberately, now driven by temperature.  The study
quantifies both sides at a cool (40°C) and a hot (90°C) operating
point, and claims the §V-A ceilings and a single-digit host cost.
"""

from __future__ import annotations

from repro.analysis.results import ExperimentRecord
from repro.ddr.imc import RefreshTimeline
from repro.ddr.spec import NVDIMMC_1600
from repro.ddr.thermal import operating_point, trefi_for_temperature
from repro.perf.model import HostCostModel
from repro.units import kb


def _host_bw(temp_c: float) -> float:
    trefi = trefi_for_temperature(temp_c)
    spec = NVDIMMC_1600.with_trefi(trefi)
    model = HostCostModel(RefreshTimeline(spec), "nvdc")
    return model.cached_bandwidth_mb_s(kb(4), is_write=False)


def run() -> ExperimentRecord:
    record = ExperimentRecord("thermal", "Temperature vs the tREFI trade")
    cool = operating_point(40)
    hot = operating_point(90)
    record.add("device ceiling @ 40C", "MiB/s", 500.8,
               cool.device_ceiling_mb_s)
    record.add("device ceiling @ 90C", "MiB/s", 1001.6,
               hot.device_ceiling_mb_s)
    cool_host = _host_bw(40)
    hot_host = _host_bw(90)
    record.add("host cached bw @ 40C", "MB/s", 1835, cool_host)
    record.add("host cached bw @ 90C (tREFI2)", "MB/s", 1691, hot_host)
    hot_cost = (1 - hot_host / cool_host) * 100
    record.add("host cost of running hot (paper: 8%)", "%", None,
               hot_cost)
    record.note("a hot NVDIMM-C is a faster SCM: thermal throttling "
                "doubles the device windows for the Fig. 13 tREFI2 "
                "price (~8 % of host bandwidth)")
    record.claim("device ceiling at 40C within 1.5 of 500.8 MiB/s (§V-A)",
                 abs(cool.device_ceiling_mb_s - 500.8) < 1.5)
    record.claim("device ceiling at 90C within 3.0 of 1001.6 MiB/s "
                 "(§V-A at tREFI2)",
                 abs(hot.device_ceiling_mb_s - 1001.6) < 3.0)
    record.claim("running hot costs the host 3-12 % (Fig. 13 tREFI2: "
                 "8 %)", 3 <= hot_cost <= 12)
    return record
