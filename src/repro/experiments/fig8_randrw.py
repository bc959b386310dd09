"""Fig. 8 — 4 KB random reads/writes, one thread, iodepth 1.

Six bars: {Baseline, NVDC-Cached, NVDC-Uncached} x {read, write}, each
as KIOPS and MB/s.  Paper values:

    Baseline       R 646 K / 2606 MB/s    W 576 K / 2360 MB/s
    NVDC-Cached    R 448 K / 1835 MB/s    W 438 K / 1796 MB/s
    NVDC-Uncached  R 13 K  / 57.3 MB/s    W 14.2 K / 58.3 MB/s

Claims: the tier ordering baseline > cached >> uncached in each
direction, the §VII-B2 factors between the tiers, and the read anchors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.results import ExperimentRecord
from repro.experiments.common import (build_cached_nvdc, build_pmem,
                                      build_uncached_nvdc)
from repro.units import PAGE_4K, kb, mb
from repro.workloads.fio import FIOJob, FIORunner

PAPER = {
    ("baseline", False): (646, 2606),
    ("baseline", True): (576, 2360),
    ("cached", False): (448, 1835),
    ("cached", True): (438, 1796),
    ("uncached", False): (13.9, 57.3),
    ("uncached", True): (14.2, 58.3),
}


@dataclass
class Fig8Row:
    config: str
    is_write: bool
    kiops: float
    mb_s: float


def _cached_job(is_write: bool, nops: int) -> FIOJob:
    return FIOJob(name="fig8", rw="randwrite" if is_write else "randread",
                  bs=kb(4), size=mb(32), numjobs=1, nops=nops)


def run(nops: int = 2000, uncached_ops: int = 120) -> ExperimentRecord:
    rows: list[Fig8Row] = []
    for is_write in (False, True):
        result = FIORunner(build_pmem()).run(_cached_job(is_write, nops))
        rows.append(Fig8Row("baseline", is_write, result.kiops,
                            result.bandwidth_mb_s))
    for is_write in (False, True):
        result = FIORunner(build_cached_nvdc()).run(
            _cached_job(is_write, nops))
        rows.append(Fig8Row("cached", is_write, result.kiops,
                            result.bandwidth_mb_s))
    for is_write in (False, True):
        rows.append(_uncached_point(is_write, uncached_ops))

    record = ExperimentRecord("fig8", "4 KB random R/W, single thread")
    for row in rows:
        paper_kiops, paper_mb = PAPER[(row.config, row.is_write)]
        op = "write" if row.is_write else "read"
        record.add(f"{row.config} {op}", "KIOPS", paper_kiops, row.kiops)
        record.add(f"{row.config} {op}", "MB/s", paper_mb, row.mb_s)
    record.note("uncached misses pay a full writeback+cachefill pair "
                "(the PoC has no dirty tracking through DAX mappings)")

    mb_s = {(row.config, row.is_write): row.mb_s for row in rows}
    for is_write in (False, True):
        op = "write" if is_write else "read"
        baseline = mb_s[("baseline", is_write)]
        cached = mb_s[("cached", is_write)]
        uncached = mb_s[("uncached", is_write)]
        record.claim(f"{op}: baseline > cached > uncached (Fig. 8 tiers)",
                     baseline > cached > uncached)
        record.claim(f"cached {op} is 60-85 % of baseline "
                     "(§VII-B2: 70-76 %)",
                     0.6 <= cached / baseline <= 0.85)
        record.claim(f"cached {op} is 20-45x uncached (§VII-B2: ~31x)",
                     20 <= cached / uncached <= 45)
    record.claim("cached read within 20 % of 1835 MB/s (Fig. 8)",
                 abs(mb_s[("cached", False)] - 1835) / 1835 < 0.2)
    record.claim("uncached read within 20 % of 57.3 MB/s (Fig. 8)",
                 abs(mb_s[("uncached", False)] - 57.3) / 57.3 < 0.2)
    return record


def _uncached_point(is_write: bool, nops: int) -> Fig8Row:
    system, first_page, t = build_uncached_nvdc(extra_pages=nops + 8)
    start = t
    for i in range(nops):
        t = system.op((first_page + i) * PAGE_4K, kb(4), is_write, t)
    span = t - start
    kiops = nops / (span / 1e12) / 1e3
    mb_s = nops * kb(4) / 1e6 / (span / 1e12)
    return Fig8Row("uncached", is_write, kiops, mb_s)
