"""``python -m repro fleet``: fleet-scale serving over sharded modules.

``fleet run [--quick] [--shards N] [--jobs N|auto]`` multiplexes the
tenant workloads over N independently-seeded module shards and writes a
schema-pinned ``FLEET_<timestamp>.json`` report.  Exits non-zero when
the fleet fails its acceptance gate: any data loss, a sanitizer
violation, or a tenant missing its declared SLO.  ``fleet chaos``
replays the same serving pipeline under a seeded shard-level fault
plan — driving one shard to ``read_only`` while the front end retries,
hedges, fails over and evacuates — and writes ``CHAOS_<timestamp>.json``
gating on zero committed-data loss and the bounded availability dip.
``fleet list`` prints the placement-policy registry and the tenant
roster.
"""

from __future__ import annotations

import argparse


def cmd_run(args: argparse.Namespace) -> int:
    from repro.fleet.frontend import Fleet, FleetConfig
    from repro.fleet.report import SHAPE
    from repro.report import write_and_gate
    from repro.util import resolve_jobs

    def run():
        config = FleetConfig(
            shards=args.shards, placement=args.placement,
            quick=args.quick, requests=args.requests, seed=args.seed,
            queue_bound=args.queue_bound, wear_shards=args.wear,
            jobs=resolve_jobs(args.jobs),
            weights=tuple(args.weights or ()),
            worker_timeout_s=args.worker_timeout)
        mode = "quick" if config.quick else "full"
        print(f"repro fleet: {mode} run, {config.shards} shards, "
              f"{config.request_count} requests, "
              f"placement {config.placement}, seed {config.seed}, "
              f"jobs {config.jobs}")
        return Fleet(config).run()

    def summary(result) -> str:
        for qos in result.tenants:
            latency = qos.latency_summary()
            verdict = "pass" if qos.slo_evaluation()["ok"] else "FAIL"
            print(f"  {qos.spec.name:<10} offered={qos.offered} "
                  f"admit={qos.admit_ppm / 10_000:.2f}% "
                  f"p50={latency['p50_ps'] / 1e6:.2f}us "
                  f"p99={latency['p99_ps'] / 1e6:.2f}us "
                  f"p999={latency['p999_ps'] / 1e6:.2f}us  "
                  f"slo={verdict}")
        histogram = result.health_histogram
        print("  health: " + " ".join(
            f"{state}={count}" for state, count in sorted(histogram.items())))
        return ("fleet clean: zero data loss, sanitizers quiet, "
                "all tenant SLOs met")

    return write_and_gate("FLEET", SHAPE, args.out, run, summary)


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.fleet.chaos import ChaosConfig, run_chaos
    from repro.fleet.chaos_report import SHAPE
    from repro.report import write_and_gate
    from repro.util import resolve_jobs

    def run():
        config = ChaosConfig(
            shards=args.shards, quick=args.quick,
            requests=args.requests, seed=args.seed,
            queue_bound=args.queue_bound, jobs=resolve_jobs(args.jobs),
            worker_timeout_s=args.worker_timeout)
        mode = "quick" if config.quick else "full"
        print(f"repro fleet chaos: {mode} campaign, {config.shards} "
              f"shards, {config.request_count} requests, "
              f"seed {config.seed}, jobs {config.jobs}")
        return run_chaos(config)

    def summary(result) -> str:
        roles = result.roles
        print(f"  plan: kill shard {roles.kill_shard}, hedge target "
              f"{roles.hedge_target}, {result.hedged_writes} hedged writes")
        for outcome in result.outcomes:
            r = outcome.result
            extras = []
            if outcome.power_cuts:
                extras.append(f"cuts={outcome.power_cuts}")
            if outcome.evac_in_pages:
                extras.append(f"evac_in={outcome.evac_in_pages}")
            if outcome.failover_served:
                extras.append(f"failover={outcome.failover_served}")
            print(f"  shard {r.shard}: {r.health['state']:<9} "
                  f"completed={r.completed} refused={r.refused} "
                  f"retries={outcome.retries}"
                  + ("".join(" " + part for part in extras)))
        for view in result.tenants:
            verdict = "pass" if view.ok else "FAIL"
            print(f"  {view.spec.name:<10} offered={view.primary.offered} "
                  f"success={view.success_ppm / 10_000:.2f}% "
                  f"(chaos slo {view.chaos_slo_ppm / 10_000:.2f}%) "
                  f"rescued={view.rescued}  {verdict}")
        evacuated = sum(out.evac_in_pages for out in result.outcomes)
        return (f"chaos clean: shard killed and evacuated ({evacuated} "
                "pages), zero committed-data loss, availability within "
                "the chaos SLO, sanitizers quiet")

    return write_and_gate("CHAOS", SHAPE, args.out, run, summary)


def cmd_list(args: argparse.Namespace) -> int:
    from repro.fleet.placement import PLACEMENTS
    from repro.fleet.tenants import default_tenants

    print("placement policies:")
    for name, factory in sorted(PLACEMENTS.items()):
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<18} {doc}")
    print("tenants (full-mode footprints):")
    for spec in default_tenants(quick=False):
        pin = (f" pinned->shard {spec.pinned_shard}"
               if spec.pinned_shard is not None else "")
        print(f"  {spec.name:<10} mix={spec.mix:<9} "
              f"weight={spec.weight} "
              f"footprint={spec.footprint_pages}p "
              f"reads={spec.read_fraction:.0%}{pin}")
    return 0


def build_parser(sub: "argparse._SubParsersAction") -> None:
    """Add the ``fleet`` command to the ``repro`` parser."""
    parser = sub.add_parser(
        "fleet", help="serve tenant workloads over N module shards")
    commands = parser.add_subparsers(dest="fleet_command", required=True)

    p_run = commands.add_parser("run", help="run the fleet and write a report")
    p_run.add_argument("--quick", action="store_true",
                       help="CI-sized run (100k requests, small shards)")
    p_run.add_argument("--shards", type=int, default=4,
                       help="module shards in the fleet (default 4)")
    p_run.add_argument("--placement", default="capacity_weighted",
                       choices=("round_robin", "capacity_weighted",
                                "tenant_pinned"),
                       help="placement policy (default capacity_weighted)")
    p_run.add_argument("--requests", type=int, default=None,
                       help="total offered requests "
                            "(default: 100k quick / 1.2M full)")
    p_run.add_argument("--seed", type=int, default=7,
                       help="fleet seed (default 7)")
    p_run.add_argument("--queue-bound", type=int, default=64,
                       help="per-shard admission queue depth")
    p_run.add_argument("--wear", type=int, default=0, metavar="K",
                       help="pre-wear the first K shards so the health "
                            "histogram exercises ladder rungs")
    p_run.add_argument("--jobs", default="1",
                       help="worker processes: an integer or 'auto' "
                            "(reports are byte-identical either way)")
    p_run.add_argument("--weights", type=int, nargs="+", default=None,
                       metavar="W",
                       help="relative shard capacities for "
                            "capacity_weighted (cycled to --shards)")
    p_run.add_argument("--worker-timeout", type=float, default=None,
                       metavar="S",
                       help="wall-clock deadline (seconds) for the "
                            "--jobs worker fan-out; a shard stuck past "
                            "it raises FleetError (default: wait)")
    p_run.add_argument("--out", default="results",
                       help="directory for FLEET_<timestamp>.json")
    p_run.set_defaults(fn=cmd_run)

    p_chaos = commands.add_parser(
        "chaos",
        help="run the fleet under a seeded fault plan and write a "
             "CHAOS report")
    p_chaos.add_argument("--quick", action="store_true",
                         help="CI-sized campaign (24k requests, small "
                              "shards)")
    p_chaos.add_argument("--shards", type=int, default=3,
                         help="module shards, >= 2 (default 3)")
    p_chaos.add_argument("--requests", type=int, default=None,
                         help="total offered requests "
                              "(default: 24k quick / 400k full)")
    p_chaos.add_argument("--seed", type=int, default=7,
                         help="campaign seed (default 7)")
    p_chaos.add_argument("--queue-bound", type=int, default=64,
                         help="per-shard admission queue depth")
    p_chaos.add_argument("--jobs", default="1",
                         help="worker processes: an integer or 'auto' "
                              "(reports are byte-identical either way)")
    p_chaos.add_argument("--worker-timeout", type=float, default=None,
                         metavar="S",
                         help="wall-clock deadline (seconds) for the "
                              "--jobs worker fan-out (default: wait)")
    p_chaos.add_argument("--out", default="results",
                         help="directory for CHAOS_<timestamp>.json")
    p_chaos.set_defaults(fn=cmd_chaos)

    p_list = commands.add_parser(
        "list", help="print placement policies and the tenant roster")
    p_list.set_defaults(fn=cmd_list)
