"""``python -m repro faults``: fault-injection campaigns.

Subcommands:

* ``run [--quick] [--seed N] [--out DIR] [--only ID[,ID...]]`` —
  execute the campaign matrix and write a schema-pinned
  ``FAULTS_<timestamp>.json`` report.  ``--only`` restricts the matrix
  to the named faults (an unknown id, or ids that select no cell of
  the chosen matrix, abort with exit 2).  Exits non-zero when any cell
  fails (a recoverable cell lost data, or any cell tripped a
  sanitizer).
* ``list`` — print the injector registry.
"""

from __future__ import annotations

import argparse


def cmd_run(args: argparse.Namespace) -> int:
    from repro.faults.campaign import (CellResult, campaign_matrix,
                                       run_campaign)
    from repro.faults.report import SHAPE
    from repro.report import write_and_gate

    def progress(cell: CellResult) -> None:
        flag = "ok" if cell.ok else "FAIL"
        print(f"  [{flag:>4}] {cell.fault:<28} x {cell.workload:<12} "
              f"injected={cell.injected} detected={cell.detected} "
              f"recovered={cell.recovered} lost={cell.lost} "
              f"violations={cell.violations}")

    def run():
        only = None
        if args.only:
            only = [name.strip() for name in args.only.split(",")
                    if name.strip()]
        campaign_matrix(args.quick, only)   # usage errors before the banner
        mode = "quick" if args.quick else "full"
        print(f"repro faults run: {mode} matrix, seed {args.seed}"
              + (f", only {','.join(only)}" if only else ""))
        return run_campaign(seed=args.seed, quick=args.quick,
                            progress=progress, only=only)

    def summary(result) -> str:
        totals = result.totals()
        print(f"cells={totals['cells']} injected={totals['injected']} "
              f"detected={totals['detected']} "
              f"recovered={totals['recovered']} "
              f"lost={totals['lost']} violations={totals['violations']} "
              f"failed={totals['failed_cells']}")
        return ("campaign clean: every recoverable cell recovered, "
                "all sanitizers quiet")

    return write_and_gate("FAULTS", SHAPE, args.out, run, summary)


def cmd_list(args: argparse.Namespace) -> int:
    from repro.faults.injectors import INJECTORS

    for injector in INJECTORS.values():
        kind = "stream" if injector.kind == "stream" else "dax"
        tag = "recoverable" if injector.recoverable else "lossy"
        print(f"{injector.name:<28} [{kind}, {tag}] {injector.description}")
    return 0


def build_parser(sub: "argparse._SubParsersAction") -> None:
    """Add the ``faults`` command to the ``repro`` parser."""
    parser = sub.add_parser("faults", help="fault-injection campaigns")
    commands = parser.add_subparsers(dest="faults_command", required=True)

    p_run = commands.add_parser("run", help="execute the campaign matrix")
    p_run.add_argument("--quick", action="store_true",
                       help="3x2 smoke matrix instead of the full one")
    p_run.add_argument("--seed", type=int, default=0,
                       help="campaign seed (default 0)")
    p_run.add_argument("--out", default="results",
                       help="directory for FAULTS_<timestamp>.json")
    p_run.add_argument("--only", default=None, metavar="ID[,ID...]",
                       help="run only the named faults (see 'faults list'; "
                            "cell seeds are unchanged)")
    p_run.set_defaults(fn=cmd_run)

    p_list = commands.add_parser("list", help="print the injector registry")
    p_list.set_defaults(fn=cmd_list)
