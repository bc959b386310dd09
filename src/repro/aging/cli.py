"""``python -m repro age``: device-lifetime endurance campaigns.

``age run [--quick]`` ages a population of independently-seeded module
shards to organic end-of-life under each FTL victim-selection strategy
and writes a schema-pinned ``AGING_<timestamp>.json`` report.  Exits
non-zero when the campaign fails an acceptance gate: any committed-data
loss, a sanitizer violation, a shard that fail-stopped before reaching
``read_only`` (degradation out of order), or a wear-leveling strategy
that does not beat the greedy baseline's wear spread.
"""

from __future__ import annotations

import argparse


def cmd_run(args: argparse.Namespace) -> int:
    from repro.aging.campaign import AgingConfig, run_aging
    from repro.aging.report import SHAPE
    from repro.report import write_and_gate

    def progress(outcome) -> None:
        print(f"  aged {outcome.strategy}/{outcome.shard}: "
              f"{outcome.epochs_run} epochs, end {outcome.end_state}, "
              f"spread {outcome.wear_spread_x1000}")

    def run():
        config = AgingConfig(
            quick=args.quick, seed=args.seed, shards=args.shards,
            max_epochs=args.epochs, snapshot=not args.no_snapshot)
        mode = "quick" if config.quick else "full"
        print(f"repro age: {mode} campaign, {config.shard_count} shards x "
              f"{len(config.strategies)} strategies, "
              f"<= {config.epoch_budget} epochs, seed {config.seed}")
        return run_aging(config, progress=progress)

    def summary(result) -> str:
        for name in result.config.strategies:
            ttro = result.time_to_read_only(name)
            print(f"  {name:<12} "
                  f"spread={result.mean_wear_spread_x1000(name)} "
                  f"waf={result.mean_waf_x1000(name)} "
                  f"read_only={ttro['reached']}/"
                  f"{ttro['reached'] + ttro['censored']} "
                  f"p50={ttro['p50_epochs']}ep "
                  f"survival={result.survival_curve(name)}")
        histogram = result.ladder_histogram()
        print("  ladder: " + " ".join(
            f"{key}={count}" for key, count in sorted(histogram.items())))
        return ("aging clean: zero data loss, sanitizers quiet, graceful "
                "degradation order, wear leveling beats greedy")

    return write_and_gate("AGING", SHAPE, args.out, run, summary)


def build_parser(sub: "argparse._SubParsersAction") -> None:
    """Add the ``age`` command to the ``repro`` parser."""
    parser = sub.add_parser(
        "age", help="age a module population to end-of-life")
    commands = parser.add_subparsers(dest="age_command", required=True)

    p_run = commands.add_parser(
        "run", help="run the endurance campaign and write a report")
    p_run.add_argument("--quick", action="store_true",
                       help="CI-sized campaign (2 shards, <= 8 epochs)")
    p_run.add_argument("--seed", type=int, default=0,
                       help="campaign seed (default 0)")
    p_run.add_argument("--shards", type=int, default=None,
                       help="shards per strategy "
                            "(default: 2 quick / 4 full)")
    p_run.add_argument("--epochs", type=int, default=None,
                       help="epoch budget per shard "
                            "(default: 8 quick / 14 full)")
    p_run.add_argument("--out", default=".",
                       help="directory for AGING_<timestamp>.json")
    p_run.add_argument("--no-snapshot", action="store_true",
                       help="age each shard on a freshly rebuilt module "
                            "instead of forking the post-fill snapshot "
                            "(slower; byte-identical report)")
    p_run.set_defaults(fn=cmd_run)
