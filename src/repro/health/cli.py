"""``python -m repro soak``: the long-run health soak.

``soak [--quick] [--seed N] [--out DIR]`` composes the fault surfaces
over successive rounds, marches the module down the whole recovery
ladder, and writes a schema-pinned ``SOAK_<timestamp>.json`` report.
Exits non-zero when the soak fails its acceptance gate: any data loss,
a missing ladder edge, p99 latency past the bound, or a sanitizer
violation.
"""

from __future__ import annotations

import argparse


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.health.report import SHAPE
    from repro.health.soak import SoakRound, run_soak
    from repro.report import write_and_gate

    def progress(rnd: SoakRound) -> None:
        print(f"  [{rnd.health_before:>9} -> {rnd.health_after:<9}] "
              f"{rnd.name:<12} writes={rnd.writes} reads={rnd.reads} "
              f"refused={rnd.refused_writes} loss={rnd.data_loss}")

    def run():
        mode = "quick" if args.quick else "full"
        print(f"repro soak: {mode} run, seed {args.seed}")
        return run_soak(seed=args.seed, quick=args.quick,
                        p99_bound=args.p99_bound, progress=progress,
                        snapshot=not args.no_snapshot)

    def summary(result) -> str:
        totals = result.totals()
        print(f"rounds={totals['rounds']} writes={totals['writes']} "
              f"reads={totals['reads']} refused={totals['refused_writes']} "
              f"data_loss={totals['data_loss']} "
              f"violations={totals['violations']}")
        print("edges: " + " ".join(
            f"{edge}={count}"
            for edge, count in sorted(result.edges.items())))
        print(f"p99: clean={result.clean_p99_ps} ps "
              f"soak={result.soak_p99_ps} ps "
              f"ratio={result.p99_ratio_x1000 / 1000:.2f}x "
              f"(bound {result.p99_bound:.0f}x)")
        return ("soak clean: zero data loss, full ladder coverage, "
                "p99 within bound, sanitizers quiet")

    return write_and_gate("SOAK", SHAPE, args.out, run, summary)


def build_parser(sub: "argparse._SubParsersAction") -> None:
    """Add the ``soak`` command to the ``repro`` parser."""
    from repro.health.soak import DEFAULT_P99_BOUND
    parser = sub.add_parser(
        "soak", help="long-run health soak down the recovery ladder")
    parser.add_argument("--quick", action="store_true",
                        help="smaller footprint per round")
    parser.add_argument("--seed", type=int, default=0,
                        help="soak seed (default 0)")
    parser.add_argument("--out", default="results",
                        help="directory for SOAK_<timestamp>.json")
    parser.add_argument("--p99-bound", type=float,
                        default=DEFAULT_P99_BOUND,
                        help="max faulted/clean p99 latency ratio")
    parser.add_argument("--no-snapshot", action="store_true",
                        help="run the fault-free twin from zero instead of "
                             "forking it from the shared prefix snapshot "
                             "(reports are byte-identical either way)")
    parser.set_defaults(fn=cmd_soak)
