"""``repro.fleet`` — fleet-scale serving over sharded NVDIMM-C modules.

Everything before this package drives exactly one module.  The fleet
layer promotes the simulator to the ROADMAP's production-scale shape: a
:class:`~repro.fleet.frontend.Fleet` of N independently-seeded module
shards behind a deterministic request front end that multiplexes
concurrent tenant workloads, with admission control (bounded per-shard
queues, backpressure), pluggable placement (round-robin interleave,
capacity-weighted, tenant-pinned tiering — the policy families the
Samsung CXL-HM characterization studies) and a per-tenant QoS layer
that scores p50/p99/p999 latency and throughput against declared SLOs.
The chaos layer (:mod:`repro.fleet.chaos`) then attacks that fleet:
seeded per-shard fault plans (program-fail bursts, ECC bursts, power
cuts with cold remounts) against which the front end defends with
bounded retry, write hedging, overflow-ring failover, and shard
evacuation.

Layout::

    tenants.py       tenant specs + SLOs; request streams reuse the
                     fio / tpch / mixed_load workload generators
    placement.py     placement policies + the zipfian key sampler
    shard.py         one module shard: fork-from-prefix and the one
                     serve loop (admission queue, fault plan,
                     integrity sweep, health summary)
    qos.py           latency percentiles and SLO evaluation
    frontend.py      the front end: plan -> place -> fan out -> merge
    report.py        the schema-pinned ``FLEET_*.json`` (repro.fleet/1)
    chaos.py         chaos campaigns: the fault plan each shard's serve
                     loop runs, two-pass hedge/failover/evacuation
                     routing
    chaos_report.py  the schema-pinned ``CHAOS_*.json``
                     (repro.fleet.chaos/1)
    cli.py           ``repro fleet run | chaos | list``

Determinism: a fleet run is a pure function of ``(seed, config)`` —
byte-identical reports across repeated runs and across ``--jobs``
settings, because every shard executes an identical plan from an
identical forked snapshot regardless of which process runs it.  Chaos
campaigns keep the contract with a two-pass structure: pass 1 runs the
pre-planned fault schedules, a pure routing pass derives failover and
evacuation from the pass-1 outcomes, pass 2 deterministically re-runs
only the shards whose plans grew.
"""

from repro.fleet.chaos import ChaosConfig, run_chaos
from repro.fleet.frontend import Fleet, FleetConfig, run_fleet
from repro.fleet.placement import PLACEMENTS, ZipfSampler
from repro.fleet.tenants import TenantSLO, TenantSpec, default_tenants

__all__ = [
    "Fleet", "FleetConfig", "run_fleet", "ChaosConfig", "run_chaos",
    "PLACEMENTS", "ZipfSampler", "TenantSLO", "TenantSpec",
    "default_tenants",
]
