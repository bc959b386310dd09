"""Fig. 9 — 4 KB random R/W with thread count 1..16 (iodepth = threads).

Paper shape: the baseline scales to 2123 KIOPS / 8694 MB/s by 8
threads; NVDC-Cached reads peak at 1060 K / 4341 MB/s (8 threads) and
writes at 1127 K / 4615 MB/s (16); Uncached saturates by 4 threads
around 24.3 KIOPS / 99.7 MB/s.

Claims: the plateaus near the paper's caps, the scaling shape of every
series (2 threads >> 1, flat by 16), the baseline's ~2x lead, and the
uncached series far below and saturated early.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.results import ExperimentRecord
from repro.experiments.common import (build_cached_nvdc, build_pmem,
                                      build_uncached_nvdc)
from repro.units import PAGE_4K, kb, mb
from repro.workloads.fio import FIOJob, FIORunner

THREADS = (1, 2, 4, 8, 16)


@dataclass
class Fig9Series:
    config: str
    is_write: bool
    threads: list[int] = field(default_factory=list)
    mb_s: list[float] = field(default_factory=list)

    @property
    def peak(self) -> float:
        return max(self.mb_s)


def run(nops: int = 800, uncached_ops: int = 100) -> ExperimentRecord:
    series: list[Fig9Series] = []
    for config, builder in (("baseline", build_pmem),
                            ("cached", build_cached_nvdc)):
        for is_write in (False, True):
            s = Fig9Series(config, is_write)
            for n in THREADS:
                job = FIOJob(rw="randwrite" if is_write else "randread",
                             bs=kb(4), size=mb(32), numjobs=n,
                             iodepth=n, nops=nops)
                result = FIORunner(builder()).run(job)
                s.threads.append(n)
                s.mb_s.append(result.bandwidth_mb_s)
            series.append(s)
    series.append(_uncached_series(False, uncached_ops))

    record = ExperimentRecord("fig9", "Thread-count sweep")
    by_key = {(s.config, s.is_write): s for s in series}
    record.add("baseline read peak", "MB/s", 8694,
               by_key[("baseline", False)].peak)
    record.add("cached read peak", "MB/s", 4341,
               by_key[("cached", False)].peak)
    record.add("cached write peak", "MB/s", 4615,
               by_key[("cached", True)].peak)
    record.add("uncached read peak", "MB/s", 99.7,
               by_key[("uncached", False)].peak)
    uncached = by_key[("uncached", False)]
    record.add("uncached saturation threads (paper: 4)", "threads",
               None, _saturation_point(uncached))
    record.note("uncached scaling is limited by the CP queue depth of "
                "1: the device pipeline fills with very few threads")

    baseline_r = by_key[("baseline", False)]
    cached_r = by_key[("cached", False)]
    cached_w = by_key[("cached", True)]
    for s, paper in ((baseline_r, 8694), (cached_r, 4341),
                     (cached_w, 4615)):
        record.claim(f"{_name(s)} plateau within 15 % of {paper} MB/s "
                     "(Fig. 9)",
                     abs(s.peak - paper) / paper < 0.15)
    for s in (baseline_r, cached_r, cached_w):
        record.claim(f"{_name(s)}: 2 threads give > 1.5x one thread "
                     "(Fig. 9 scaling)",
                     s.mb_s[1] > 1.5 * s.mb_s[0])
        record.claim(f"{_name(s)}: 16 threads within 5 % of the peak "
                     "(Fig. 9 plateau)",
                     s.mb_s[-1] >= 0.95 * s.peak)
    record.claim("baseline read plateau is 1.6-2.4x cached read "
                 "(Fig. 9: 8694 / 4341 MB/s = 2.0x)",
                 1.6 <= baseline_r.peak / cached_r.peak <= 2.4)
    record.claim("uncached peak is below 1/30 of the cached read peak "
                 "(Fig. 9: 99.7 vs 4341 MB/s)",
                 uncached.peak < cached_r.peak / 30)
    record.claim("uncached at 16 threads within 10 % of its peak "
                 "(Fig. 9: saturated by 4 threads)",
                 uncached.mb_s[-1] >= 0.9 * uncached.peak)
    return record


def _name(series: Fig9Series) -> str:
    return f"{series.config} {'write' if series.is_write else 'read'}"


def _uncached_series(is_write: bool, nops: int) -> Fig9Series:
    s = Fig9Series("uncached", is_write)
    for n in THREADS:
        system, first_page, t = build_uncached_nvdc(extra_pages=nops + 8)
        cursors = [t] * n
        for i in range(nops):
            k = min(range(n), key=lambda j: cursors[j])
            cursors[k] = system.op((first_page + i) * PAGE_4K, kb(4),
                                   is_write, cursors[k])
        span = max(cursors) - t
        s.threads.append(n)
        s.mb_s.append(nops * kb(4) / 1e6 / (span / 1e12))
    return s


def _saturation_point(series: Fig9Series) -> int:
    """First thread count within 5 % of the peak."""
    peak = series.peak
    for n, bw in zip(series.threads, series.mb_s):
        if bw >= 0.95 * peak:
            return n
    return series.threads[-1]
