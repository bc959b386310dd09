"""Fig. 13 — host-side Cached bandwidth vs refresh rate.

The other side of the tREFI trade: a faster refresh rate gives the
device more windows (Fig. 12) but steals host channel time.  Paper
points (4 KB random reads on cached pages):

    tREFI (7.8 us)  -> 1835 MB/s
    tREFI2 (3.9 us) -> 1691 MB/s  (-8 %)
    tREFI4 (1.95 us)-> 1530 MB/s  (-17 %)
    16 threads @ tREFI4 -> 3690 MB/s (the "balanced SCM" trade-off)

Claims: the three paper points, a modest host cost at tREFI2 and
tREFI4, and 16 threads still clearing 2.8 GB/s at tREFI4.
"""

from __future__ import annotations

from repro.analysis.results import ExperimentRecord
from repro.experiments.common import build_cached_nvdc
from repro.units import kb, mb, us
from repro.workloads.fio import FIOJob, FIORunner

POINTS = ((7.8, 1835), (3.9, 1691), (1.95, 1530))


def run(nops: int = 1500) -> ExperimentRecord:
    record = ExperimentRecord("fig13", "Host bandwidth vs tREFI")
    series = []
    base_bw = None
    for trefi_us, paper in POINTS:
        system = build_cached_nvdc(trefi_ps=us(trefi_us))
        result = FIORunner(system).run(
            FIOJob(rw="randread", bs=kb(4), size=mb(32), nops=nops))
        series.append((trefi_us, result.bandwidth_mb_s))
        record.add(f"tREFI = {trefi_us} us", "MB/s", paper,
                   result.bandwidth_mb_s)
        if base_bw is None:
            base_bw = result.bandwidth_mb_s
    drop4 = 1 - series[-1][1] / base_bw
    record.add("tREFI4 degradation", "%", 17, drop4 * 100)

    system = build_cached_nvdc(trefi_ps=us(1.95))
    result16 = FIORunner(system).run(
        FIOJob(rw="randread", bs=kb(4), size=mb(32), numjobs=16,
               nops=max(400, nops // 2)))
    record.add("16 threads @ tREFI4", "MB/s", 3690,
               result16.bandwidth_mb_s)
    record.note("together with Fig. 12: tREFI4 buys the device 914 MB/s "
                "while the host keeps >80 % of its cached bandwidth")

    by_trefi = dict(series)
    for trefi_us, paper in POINTS:
        record.claim(f"tREFI = {trefi_us} us within 8 % of {paper} MB/s "
                     "(Fig. 13)",
                     abs(by_trefi[trefi_us] - paper) / paper < 0.08)
    base = by_trefi[7.8]
    record.claim("tREFI2 costs the host 0-12 % (Fig. 13: 8 %)",
                 0.0 < 1 - by_trefi[3.9] / base < 0.12)
    record.claim("tREFI4 costs the host 8-25 % (Fig. 13: 17 %)",
                 0.08 < 1 - by_trefi[1.95] / base < 0.25)
    record.claim("16 threads at tREFI4 clear 2800 MB/s "
                 "(Fig. 13: 3690 MB/s)",
                 result16.bandwidth_mb_s > 2800)
    return record
