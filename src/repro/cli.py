"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments [ids...]`` — run experiment modules (default: all) and
  print their paper-vs-measured records and claims; ``--jobs N|auto``
  fans them out over worker processes; exit 1 if a claim failed.
* ``report`` — run every experiment and regenerate EXPERIMENTS.md,
  results.csv and results.json; then exit 1 naming each failed claim.
* ``tables`` — render the static tables (Table I/II, design space,
  arbitration and variant comparisons).
* ``fio`` — an ad-hoc FIO run against a chosen device tier.
* ``validate`` — the §VII-A aging test.
* ``check`` — correctness tooling: ``check lint`` (AST invariant
  passes), ``check --static`` (whole-program hook/trace registry
  cross-checks plus the REPRO006–013 crash-safety and determinism
  rules) and ``check run --sanitize <experiment>`` (sanitized run).
* ``faults`` — deterministic fault-injection campaigns:
  ``faults run [--quick] [--only ids]`` executes the (fault x workload)
  matrix and writes ``FAULTS_<timestamp>.json``; ``faults list`` prints
  the injector registry.
* ``soak`` — the long-run health soak: composed faults marching one
  module down the recovery ladder, writing ``SOAK_<timestamp>.json``.
* ``crash`` — the crash-point explorer: a power cut at every event
  index, cold remount, invariant checks, ``RECOVERY_<timestamp>.json``.
* ``fleet`` — fleet-scale serving: ``fleet run [--quick] [--shards N]
  [--jobs N|auto]`` multiplexes tenant workloads over N
  independently-seeded module shards with admission control and
  per-tenant SLO scoring, writing ``FLEET_<timestamp>.json``;
  ``fleet chaos [--quick]`` runs the same fleet under a seeded fault
  plan (retry / hedge / failover / evacuation), writing
  ``CHAOS_<timestamp>.json``; ``fleet list`` prints the placement
  registry and tenant roster.
* ``age`` — device-lifetime endurance campaigns: ``age run [--quick]``
  ages a shard population to organic end-of-life under each FTL
  victim-selection strategy (snapshot-accelerated wear/retention
  fast-forward between epochs) and writes ``AGING_<timestamp>.json``
  with fleet survival telemetry.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigError


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import gate_claims, run_all
    return gate_claims(run_all(only=args.ids or None, jobs=args.jobs))


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.runner import gate_claims, write_report
    return gate_claims(write_report(jobs=args.jobs))


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments import (arbitration_compare, design_space,
                                   table1_config, table2_benchmarks,
                                   variants_compare)
    for title, module in (("Table I", table1_config),
                          ("Table II", table2_benchmarks),
                          ("§III-A design space", design_space),
                          ("§VIII arbitration schemes",
                           arbitration_compare),
                          ("§VIII NVDIMM variants", variants_compare)):
        print(f"== {title} ==")
        print(module.render())
        print()
    return 0


def _cmd_fio(args: argparse.Namespace) -> int:
    from repro.device.nvdimmc import NVDIMMCSystem, PmemSystem
    from repro.units import mb
    from repro.workloads.fio import FIOJob, FIORunner
    if args.device == "pmem":
        system = PmemSystem(device_bytes=mb(128))
    else:
        system = NVDIMMCSystem(cache_bytes=mb(64), device_bytes=mb(128))
    job = FIOJob(name=f"{args.rw}-{args.bs}", rw=args.rw, bs=args.bs,
                 size=mb(args.size_mb), numjobs=args.threads,
                 iodepth=args.threads, nops=args.nops)
    result = FIORunner(system).run(job)
    print(result)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.workloads.stream_bench import run_stream_validation
    result = run_stream_validation(iterations=args.iterations)
    status = "CLEAN" if result.clean else "FAILED"
    print(f"{status}: {result.iterations} iterations, "
          f"{result.kernels_checked} kernel checks, "
          f"{result.mismatches} mismatches, "
          f"{result.collisions} collisions, "
          f"{result.refreshes_detected} refreshes detected, "
          f"{result.device_bytes_moved} device bytes under tRFC")
    return 0 if result.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NVDIMM-C (HPCA 2020) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments",
                           help="run experiment modules")
    p_exp.add_argument("ids", nargs="*",
                       help="experiment ids (default: all)")
    p_exp.add_argument("--jobs", default="1",
                       help="worker processes: an integer or 'auto'")
    p_exp.set_defaults(fn=_cmd_experiments)

    p_rep = sub.add_parser("report", help="regenerate EXPERIMENTS.md, "
                                          "results.csv and results.json")
    p_rep.add_argument("--jobs", default="1",
                       help="worker processes: an integer or 'auto'")
    p_rep.set_defaults(fn=_cmd_report)

    p_tab = sub.add_parser("tables", help="render the static tables")
    p_tab.set_defaults(fn=_cmd_tables)

    p_fio = sub.add_parser("fio", help="ad-hoc FIO run")
    p_fio.add_argument("--device", choices=("nvdc", "pmem"),
                       default="nvdc")
    p_fio.add_argument("--rw", default="randread",
                       choices=("read", "write", "randread", "randwrite",
                                "randrw"))
    p_fio.add_argument("--bs", type=int, default=4096)
    p_fio.add_argument("--threads", type=int, default=1)
    p_fio.add_argument("--size-mb", type=int, default=32)
    p_fio.add_argument("--nops", type=int, default=2000)
    p_fio.set_defaults(fn=_cmd_fio)

    p_val = sub.add_parser("validate", help="§VII-A aging test")
    p_val.add_argument("--iterations", type=int, default=3)
    p_val.set_defaults(fn=_cmd_validate)

    from repro.check.cli import build_parser as build_check_parser
    build_check_parser(sub)
    from repro.faults.cli import build_parser as build_faults_parser
    build_faults_parser(sub)
    from repro.health.cli import build_parser as build_soak_parser
    build_soak_parser(sub)
    from repro.recovery.cli import build_parser as build_crash_parser
    build_crash_parser(sub)
    from repro.fleet.cli import build_parser as build_fleet_parser
    build_fleet_parser(sub)
    from repro.aging.cli import build_parser as build_age_parser
    build_age_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; a :class:`~repro.errors.ConfigError` it raises
    is a usage error (2), reported on stderr without a traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
