"""Run every experiment and regenerate the EXPERIMENTS.md report.

Experiments are independent and deterministic, so ``run_all`` can fan
them out over worker processes (``jobs > 1``); records are merged back
in declaration order, which makes the exported ``results.json`` /
``results.csv`` byte-identical between serial and parallel executions.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.analysis.results import ExperimentRecord
from repro.errors import ConfigError
from repro.util import resolve_jobs  # noqa: F401  (re-export: long-time home)
from repro.experiments import (ablations, arbitration_compare,
                               channel_isolation, dax_motivation,
                               design_space, fig7_filecopy, fig8_randrw,
                               fig9_threads, fig10_granularity, fig11_tpch,
                               fig12_td, fig13_trefi, mixed_integrity,
                               power_endurance, protocol_crosscheck,
                               table1_config, table2_benchmarks,
                               thermal_study, validation_refresh,
                               variants_compare)


def _first(value):
    """Unwrap (record, extras...) returns."""
    if isinstance(value, tuple):
        return value[0]
    return value


#: experiment id -> zero-arg callable returning an ExperimentRecord
#: (possibly inside a tuple with rendering payload).
ALL_EXPERIMENTS: dict[str, Callable[[], ExperimentRecord]] = {
    "table1": lambda: _first(table1_config.run()),
    "table2": lambda: _first(table2_benchmarks.run()),
    "validation": lambda: _first(validation_refresh.run()),
    "fig7": lambda: _first(fig7_filecopy.run()),
    "fig8": lambda: _first(fig8_randrw.run()),
    "fig9": lambda: _first(fig9_threads.run()),
    "fig10": lambda: _first(fig10_granularity.run()),
    "fig11": lambda: _first(fig11_tpch.run()),
    "fig12": lambda: _first(fig12_td.run()),
    "fig13": lambda: _first(fig13_trefi.run()),
    "mixed": lambda: _first(mixed_integrity.run()),
    "ablations": lambda: _first(ablations.run()),
    "design_space": lambda: _first(design_space.run()),
    "arbitration": lambda: _first(arbitration_compare.run()),
    "variants": lambda: _first(variants_compare.run()),
    "thermal": lambda: _first(thermal_study.run()),
    "crosscheck": lambda: _first(protocol_crosscheck.run()),
    "isolation": lambda: _first(channel_isolation.run()),
    "power_endurance": lambda: _first(power_endurance.run()),
    "dax": lambda: _first(dax_motivation.run()),
}


def _run_one(exp_id: str) -> ExperimentRecord:
    """Worker entry point: run one experiment by id (picklable)."""
    return ALL_EXPERIMENTS[exp_id]()


def run_all(only: list[str] | None = None,
            verbose: bool = True,
            jobs: int | str | None = 1) -> list[ExperimentRecord]:
    """Execute experiments (all, or the ids in ``only``).

    ``jobs`` > 1 fans experiments out over a process pool (they are
    independent and deterministic); records come back in declaration
    order regardless of completion order, so serial and parallel runs
    produce identical output.  Unknown ids in ``only`` raise
    :class:`~repro.errors.ConfigError` naming the valid ids.
    """
    if only is not None:
        unknown = sorted(set(only) - set(ALL_EXPERIMENTS))
        if unknown:
            raise ConfigError(
                f"unknown experiment ids: {unknown}; "
                f"valid ids: {sorted(ALL_EXPERIMENTS)}")
    ids = [exp_id for exp_id in ALL_EXPERIMENTS
           if only is None or exp_id in only]
    jobs = min(resolve_jobs(jobs), max(1, len(ids)))

    records = []
    if jobs == 1:
        for exp_id in ids:
            started = time.time()
            record = ALL_EXPERIMENTS[exp_id]()
            if verbose:
                print(record)
                print(f"  [{time.time() - started:.1f}s]\n")
            records.append(record)
        return records

    from concurrent.futures import ProcessPoolExecutor
    started = time.time()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {exp_id: pool.submit(_run_one, exp_id) for exp_id in ids}
        # Collect in declaration order, not completion order.
        for exp_id in ids:
            record = futures[exp_id].result()
            if verbose:
                print(record)
                print()
            records.append(record)
    if verbose:
        print(f"  [{len(ids)} experiments on {jobs} workers in "
              f"{time.time() - started:.1f}s]\n")
    return records


def to_markdown(records: list[ExperimentRecord]) -> str:
    """EXPERIMENTS.md body: paper vs measured for every artefact."""
    import math
    lines = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Regenerate with `python -m repro.experiments.runner` (or",
        "`pytest benchmarks/`).  `x` columns are measured/paper ratios;",
        "absolute numbers come from the calibrated simulator, shapes are",
        "predictions (see DESIGN.md §5 for the fidelity argument).",
        "",
        "## Summary",
        "",
        "| experiment | paper-anchored points | worst deviation |",
        "|---|---|---|",
    ]
    for record in records:
        anchored = sum(1 for c in record.comparisons
                       if c.paper not in (None, 0))
        worst = record.worst_ratio_error()
        deviation = (f"{(math.exp(worst) - 1) * 100:.0f} %"
                     if anchored else "—")
        lines.append(f"| {record.experiment_id} — {record.title} | "
                     f"{anchored} | {deviation} |")
    lines.append("")
    for record in records:
        lines.append(f"## {record.experiment_id} — {record.title}")
        lines.append("")
        lines.append("| metric | unit | paper | measured | ratio |")
        lines.append("|---|---|---|---|---|")
        for c in record.comparisons:
            paper = "—" if c.paper is None else f"{c.paper:g}"
            ratio = "—" if c.ratio is None else f"{c.ratio:.2f}"
            lines.append(f"| {c.label} | {c.unit} | {paper} | "
                         f"{c.measured:.4g} | {ratio} |")
        for note in record.notes:
            lines.append(f"\n*{note}*")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Run all experiments and regenerate the report files")
    parser.add_argument("--jobs", default="1",
                        help="worker processes: an integer or 'auto' "
                             "(one per CPU); default 1 (serial)")
    args = parser.parse_args(argv)
    records = run_all(jobs=args.jobs)
    path = "EXPERIMENTS.md"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_markdown(records))
    from repro.analysis.export import to_csv, to_json
    with open("results.csv", "w", encoding="utf-8") as handle:
        handle.write(to_csv(records))
    with open("results.json", "w", encoding="utf-8") as handle:
        handle.write(to_json(records))
    print(f"wrote {path} (+ results.csv, results.json) with "
          f"{len(records)} experiment records")


if __name__ == "__main__":
    main()
