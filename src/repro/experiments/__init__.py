"""Experiment modules: one per table/figure of the paper's evaluation.

Each module exposes a ``run()`` returning an
:class:`~repro.analysis.results.ExperimentRecord` with paper-vs-measured
comparisons and the paper-shape claims checked over the run's own
numbers.  ``repro.experiments.runner`` executes everything, regenerates
EXPERIMENTS.md and gates the claims.

| module                | paper artefact                               |
|-----------------------|----------------------------------------------|
| table1_config         | Table I  — test system configuration         |
| table2_benchmarks     | Table II — benchmarks and metrics            |
| validation_refresh    | §VII-A   — refresh-detection aging test      |
| fig7_filecopy         | Fig. 7   — file-copy throughput              |
| fig8_randrw           | Fig. 8   — 4 KB random R/W, 1 thread         |
| fig9_threads          | Fig. 9   — thread-count sweep                |
| fig10_granularity     | Fig. 10  — access-granularity sweep          |
| fig11_tpch            | Fig. 11  — TPC-H on HANA + LRU hit study     |
| fig12_td              | Fig. 12  — hypothetical device vs tD         |
| fig13_trefi           | Fig. 13  — host bandwidth vs tREFI           |
| mixed_integrity       | §VII-B5  — mixed-load data validation        |
| ablations             | §VII-C   — future-work what-ifs (extensions) |
| design_space          | §III-A   — frontend-feasibility calculator   |
| arbitration_compare   | §VIII    — arbitration schemes compared      |
| variants_compare      | §VIII    — JEDEC NVDIMM family compared      |
| thermal_study         | §II-B    — temperature vs the tREFI trade    |
| protocol_crosscheck   | model cross-validation (protocol vs fast)    |
| channel_isolation     | §V-A     — per-channel tRFC blast radius     |
| power_endurance       | refresh watts + NAND wear of the mechanism   |
| dax_motivation        | §II-A    — DAX vs page-cache mmap            |
| sweeps                | 2-D design-choice grids (library, no runner) |
"""

from repro.experiments import (ablations, arbitration_compare,
                               channel_isolation, dax_motivation,
                               design_space, fig7_filecopy, fig8_randrw,
                               fig9_threads, fig10_granularity, fig11_tpch,
                               fig12_td, fig13_trefi, mixed_integrity,
                               power_endurance, protocol_crosscheck,
                               table1_config,
                               table2_benchmarks, thermal_study,
                               validation_refresh, variants_compare)
from repro.experiments.runner import ALL_EXPERIMENTS, run_all

__all__ = [
    "ablations",
    "arbitration_compare",
    "design_space",
    "thermal_study",
    "protocol_crosscheck",
    "channel_isolation",
    "power_endurance",
    "dax_motivation",
    "variants_compare",
    "fig7_filecopy",
    "fig8_randrw",
    "fig9_threads",
    "fig10_granularity",
    "fig11_tpch",
    "fig12_td",
    "fig13_trefi",
    "mixed_integrity",
    "table1_config",
    "table2_benchmarks",
    "validation_refresh",
    "ALL_EXPERIMENTS",
    "run_all",
]
