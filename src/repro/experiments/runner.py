"""Run every experiment and regenerate the EXPERIMENTS.md report.

Experiments are independent and deterministic, so ``run_all`` can fan
them out over worker processes (``jobs > 1``); records are merged back
in declaration order, which makes the exported ``results.json`` /
``results.csv`` byte-identical between serial and parallel executions.

Each experiment checks the paper's shape over its own numbers and
records the verdicts as claims; :func:`gate_claims` turns a failed one
into exit 1 for ``repro report`` and ``repro experiments``.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

from repro.analysis.export import to_csv, to_json
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


#: experiment id -> zero-arg callable returning an ExperimentRecord
#: whose claims the experiment has already checked.
ALL_EXPERIMENTS: dict[str, Callable[[], ExperimentRecord]] = {
    "table1": table1_config.run,
    "table2": table2_benchmarks.run,
    "validation": validation_refresh.run,
    "fig7": fig7_filecopy.run,
    "fig8": fig8_randrw.run,
    "fig9": fig9_threads.run,
    "fig10": fig10_granularity.run,
    "fig11": fig11_tpch.run,
    "fig12": fig12_td.run,
    "fig13": fig13_trefi.run,
    "mixed": mixed_integrity.run,
    "ablations": ablations.run,
    "design_space": design_space.run,
    "arbitration": arbitration_compare.run,
    "variants": variants_compare.run,
    "thermal": thermal_study.run,
    "crosscheck": protocol_crosscheck.run,
    "isolation": channel_isolation.run,
    "power_endurance": power_endurance.run,
    "dax": dax_motivation.run,
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
        "Regenerate with `python -m repro report`.  `x` columns are",
        "measured/paper ratios; absolute numbers come from the calibrated",
        "simulator, shapes are predictions (see DESIGN.md §5 for the",
        "fidelity argument).",
        "",
        "## Summary",
        "",
        "| experiment | paper-anchored points | worst deviation "
        "| claims held |",
        "|---|---|---|---|",
    ]
    for record in records:
        anchored = sum(1 for c in record.comparisons
                       if c.paper not in (None, 0))
        worst = record.worst_ratio_error()
        deviation = (f"{(math.exp(worst) - 1) * 100:.0f} %"
                     if anchored else "—")
        held = sum(claim.ok for claim in record.claims)
        lines.append(f"| {record.experiment_id} — {record.title} | "
                     f"{anchored} | {deviation} | "
                     f"{held}/{len(record.claims)} |")
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
        if record.claims:
            lines.append("")
            lines.extend(f"- {claim}" for claim in record.claims)
        lines.append("")
    return "\n".join(lines)


def gate_claims(records: list[ExperimentRecord]) -> int:
    """Name each failed claim on stderr; 1 if any failed, else 0."""
    failed = [(record.experiment_id, claim) for record in records
              for claim in record.claims if not claim.ok]
    for exp_id, claim in failed:
        print(f"claim failed: {exp_id}: {claim.text}", file=sys.stderr)
    return 1 if failed else 0


def write_report(jobs: int | str | None = 1) -> list[ExperimentRecord]:
    """Run every experiment, write ``EXPERIMENTS.md``, ``results.csv``
    and ``results.json`` to the working directory and return the
    records (``python -m repro report``)."""
    records = run_all(jobs=jobs)
    for path, text in (("EXPERIMENTS.md", to_markdown(records)),
                       ("results.csv", to_csv(records)),
                       ("results.json", to_json(records))):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(f"wrote EXPERIMENTS.md (+ results.csv, results.json) with "
          f"{len(records)} experiment records")
    return records
