"""``python -m repro crash``: the crash-point explorer.

``crash [--quick] [--seed N] [--out DIR]`` sweeps a power cut across
every event index of a deterministic workload (``--quick``: stride
samples plus bisected behaviour boundaries), cold-mounts after each
cut, verifies the recovery invariants, and writes a schema-pinned
``RECOVERY_<timestamp>.json`` report.  Exits non-zero when any cut
point loses committed data, serves a torn page, trips a sanitizer, or
the sweep never reached the §V-C drain.
"""

from __future__ import annotations

import argparse


def cmd_crash(args: argparse.Namespace) -> int:
    from repro.recovery.explorer import explore
    from repro.recovery.report import SHAPE
    from repro.report import write_and_gate

    def progress(done: int, planned: int) -> None:
        if done % 25 == 0 or done == planned:
            print(f"  explored {done}/{planned} cut points")

    def run():
        mode = "quick" if args.quick else "full"
        print(f"repro crash: {mode} sweep, seed {args.seed}")
        return explore(seed=args.seed, quick=args.quick,
                       progress=progress, snapshot=not args.no_snapshot)

    def summary(result) -> str:
        totals = result.totals()
        print(f"events={result.total_events} "
              f"(workload {result.workload_events}, "
              f"drain {result.total_events - result.workload_events}) "
              f"cut_points={totals['cut_points']} "
              f"drain_cuts={totals['drain_cuts']}")
        print(f"committed_lost={totals['committed_lost']} "
              f"torn_served={totals['torn_served']} "
              f"torn_quarantined={totals['torn_quarantined']} "
              f"acked_uncommitted={totals['acked_uncommitted']} "
              f"violations={totals['sanitizer_violations']} "
              f"failed_runs={totals['failed_runs']}")
        print("sites: " + " ".join(
            f"{site}={count}"
            for site, count in sorted(result.sites().items())))
        return ("crash sweep clean: every cut point remounted with "
                "committed data intact and no torn page served")

    return write_and_gate("RECOVERY", SHAPE, args.out, run, summary)


def build_parser(sub: "argparse._SubParsersAction") -> None:
    """Add the ``crash`` command to the ``repro`` parser."""
    parser = sub.add_parser(
        "crash", help="crash-point explorer (cut + remount sweep)")
    parser.add_argument("--quick", action="store_true",
                        help="stride-sample the event space and bisect "
                             "behaviour boundaries instead of cutting at "
                             "every event")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--out", default="results",
                        help="directory for RECOVERY_<timestamp>.json")
    parser.add_argument("--no-snapshot", action="store_true",
                        help="re-run every cut from event zero instead of "
                             "forking tails from mid-run snapshots "
                             "(reports are byte-identical either way)")
    parser.set_defaults(fn=cmd_crash)
