"""Fig. 10 — access-granularity sweep, one thread (Cached vs Baseline).

Paper anchors: NVDC-Cached does 2147 KIOPS at 128 B reads — 1.15x the
baseline — and reaches ~3050 MB/s at 64 KB; there is a visible
bandwidth jump between 1 KB and 4 KB blocks (the driver manages
mappings at 4 KB granularity, so sub-page blocks amortise nothing).

Claims: the inversion (Cached wins small reads, loses at 4 KB), where
the crossover falls, bandwidth growing with block size, and the jump.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.results import ExperimentRecord
from repro.experiments.common import build_cached_nvdc, build_pmem
from repro.units import kb, mb
from repro.workloads.fio import FIOJob, FIORunner

BLOCK_SIZES = (128, 256, 512, 1024, kb(4), kb(16), kb(64))


@dataclass
class Fig10Series:
    config: str
    bs: list[int] = field(default_factory=list)
    kiops: list[float] = field(default_factory=list)
    mb_s: list[float] = field(default_factory=list)

    def at(self, bs: int) -> tuple[float, float]:
        index = self.bs.index(bs)
        return self.kiops[index], self.mb_s[index]


def run(nops: int = 1500) -> ExperimentRecord:
    series = []
    for config, builder in (("baseline", build_pmem),
                            ("cached", build_cached_nvdc)):
        s = Fig10Series(config)
        for bs in BLOCK_SIZES:
            job = FIOJob(rw="randread", bs=bs, size=mb(32), numjobs=1,
                         nops=nops)
            result = FIORunner(builder()).run(job)
            s.bs.append(bs)
            s.kiops.append(result.kiops)
            s.mb_s.append(result.bandwidth_mb_s)
        series.append(s)
    baseline, cached = series

    record = ExperimentRecord("fig10", "Access-granularity sweep")
    record.add("cached 128 B reads", "KIOPS", 2147, cached.at(128)[0])
    record.add("cached/baseline at 128 B", "x", 1.15,
               cached.at(128)[0] / baseline.at(128)[0])
    record.add("cached 64 KB bandwidth", "MB/s", 3050,
               cached.at(kb(64))[1])
    jump = cached.at(kb(4))[1] / cached.at(1024)[1]
    record.add("4 KB / 1 KB bandwidth jump", "x", None, jump)
    record.note("crossover: NVDC-Cached wins below ~1 KB, the baseline "
                "wins at 4 KB+ — the Fig. 10 inversion")

    ratio_128 = cached.at(128)[0] / baseline.at(128)[0]
    record.claim("cached/baseline KIOPS at 128 B is 1.05-1.30x "
                 "(Fig. 10: 1.15x)",
                 1.05 <= ratio_128 <= 1.30)
    ratio_4k = cached.at(kb(4))[1] / baseline.at(kb(4))[1]
    record.claim("cached/baseline MB/s at 4 KB is 0.60-0.85 "
                 "(Fig. 10: ~70 %)",
                 0.6 <= ratio_4k <= 0.85)
    wins = [cached.at(bs)[1] >= baseline.at(bs)[1] for bs in cached.bs]
    record.claim("cached wins at 128 B and loses at 64 KB "
                 "(the Fig. 10 inversion)",
                 wins[0] and not wins[-1])
    flip = next((bs for bs, win in zip(cached.bs, wins) if not win), None)
    record.claim("the crossover falls between 512 B and 4 KB (Fig. 10)",
                 flip is not None and 512 <= flip <= kb(4))
    record.claim("cached bandwidth grows with block size (Fig. 10)",
                 cached.mb_s == sorted(cached.mb_s))
    record.claim("baseline bandwidth grows with block size (Fig. 10)",
                 baseline.mb_s == sorted(baseline.mb_s))
    record.claim("cached 4 KB bandwidth is > 1.3x its 1 KB bandwidth "
                 "(Fig. 10: the jump at the driver's 4 KB pages)",
                 cached.at(kb(4))[1] > 1.3 * cached.at(1024)[1])
    return record
