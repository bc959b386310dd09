"""The schema-pinned ``CHAOS_*.json`` chaos-campaign report.

Same contract as the fleet/faults/soak reports: :data:`SCHEMA` pins the
shape, :data:`SHAPE` declares the payload that
:func:`repro.report.check` validates (``generated_at`` is the only
non-deterministic field), and :func:`chaos_payload` builds the body.

The report is the campaign's acceptance artifact, organised so every
gate can be audited from the JSON alone:

* ``plan`` — the pre-execution fault plan (kill shard, hedge target,
  per-shard event schedules, hedged write count);
* ``routing`` — the deterministic pass-2 plan derived from pass-1
  outcomes (impaired shards, donors, evacuation page counts, failover
  assignment);
* ``tenants`` — per-tenant availability under chaos: primary serving,
  failover serving, hedge rescues, and the ``success_ppm`` vs the
  chaos SLO (declared ``min_admit_ppm`` minus the chaos allowance);
* ``shards`` — the fleet/1 per-shard telemetry plus the chaos columns
  (role, retries, power cuts, remount audits, evacuation in/out);
* ``gates`` — the four clauses of the chaos gate
  (:attr:`ChaosResult.gates`), separately, so a red ``ok`` names its
  cause.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fleet.report import LATENCY, SHARD
from repro.health.report import HEALTH_LABEL
from repro.report import (BOOL, COUNT, INT, STR, TIMESTAMP, ListOf, MapOf,
                          one_of, schema_id)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.fleet.chaos import ChaosResult

SCHEMA = schema_id("fleet.chaos", 1)

SHAPE = {
    "schema": one_of(SCHEMA),
    "generated_at": TIMESTAMP,
    "config": {
        "shards": COUNT, "placement": STR, "quick": BOOL,
        "requests": COUNT, "seed": INT, "queue_bound": COUNT,
        "weights": ListOf(INT), "bad_block_budget": COUNT,
        "slo_allowance_ppm": COUNT},
    "service_est_ps": COUNT,
    "plan": {
        "kill_shard": COUNT, "hedge_target": COUNT,
        "hedged_writes": COUNT,
        "events": MapOf(ListOf({
            "at_request": COUNT,
            "kind": one_of("ecc-burst", "power-cut", "program-fail"),
            "magnitude": COUNT}))},
    "routing": {
        "impaired": ListOf(COUNT), "survivors": ListOf(COUNT),
        "skipped_hedged": COUNT,
        "evacuations": ListOf(dict.fromkeys(
            ("source", "donor", "pages_committed",
             "pages_excluded_hedged", "pages_copied"), COUNT)),
        "failover_assigned": MapOf(COUNT)},
    "tenants": ListOf({
        "name": STR, "mix": STR,
        **dict.fromkeys(
            ("offered", "admitted", "rejected", "refused", "completed",
             "failed_reads", "integrity_failures", "rescued",
             "success_ppm", "chaos_slo_ppm"), COUNT),
        "latency": LATENCY,
        "failover": {
            **dict.fromkeys(
                ("assigned", "completed", "refused", "failed_reads",
                 "integrity_failures"), COUNT),
            "latency": LATENCY},
        "hedge": {"planned": COUNT, "completed": COUNT},
        "ok": BOOL},
        non_empty=True),
    "shards": ListOf({
        **SHARD,
        "role": one_of("hedge-target", "kill", "survivor"),
        "final_pass": one_of(1, 2),
        **dict.fromkeys(
            ("retries", "retry_successes", "power_cuts",
             "evac_out_pages", "evac_in_pages", "evac_in_failures",
             "hedge_attempted", "hedge_refused", "failover_served"),
            COUNT),
        "remounts": ListOf({
            "health_state": HEALTH_LABEL,
            **dict.fromkeys(
                ("at_ps", "bad_blocks", "replay_recovered", "replay_lost",
                 "replay_crc_mismatches"), COUNT)})},
        non_empty=True),
    "totals": dict.fromkeys(
        ("requests", "rejected", "refused", "completed_primary",
         "completed_failover", "rescued", "failed_reads", "data_loss",
         "sweep_pages", "violations", "retries", "power_cuts",
         "evacuated_pages"), COUNT),
    "gates": dict.fromkeys(
        ("zero_data_loss", "quiet_sanitizers",
         "shard_killed_and_evacuated", "tenants_within_slo"), BOOL),
    "ok": BOOL,
}


def _shard_role(shard: int, result: "ChaosResult") -> str:
    if shard == result.roles.kill_shard:
        return "kill"
    if shard == result.roles.hedge_target:
        return "hedge-target"
    return "survivor"


def chaos_payload(result: "ChaosResult") -> dict:
    """The report body (everything except ``generated_at``)."""
    tenants = []
    for view in result.tenants:
        primary, failover = view.primary, view.failover
        tenants.append({
            "name": view.spec.name,
            "mix": view.spec.mix,
            "offered": primary.offered,
            "admitted": primary.admitted,
            "rejected": primary.rejected,
            "refused": primary.refused,
            "completed": primary.completed,
            "failed_reads": primary.failed_reads,
            "integrity_failures": primary.integrity_failures,
            "latency": primary.latency_summary(),
            "failover": {
                "assigned": failover.offered,
                "completed": failover.completed,
                "refused": failover.refused,
                "failed_reads": failover.failed_reads,
                "integrity_failures": failover.integrity_failures,
                "latency": failover.latency_summary(),
            },
            "hedge": {"planned": view.hedge_planned,
                      "completed": view.hedge_completed},
            "rescued": view.rescued,
            "success_ppm": view.success_ppm,
            "chaos_slo_ppm": view.chaos_slo_ppm,
            "ok": view.ok,
        })
    shards = []
    for outcome in result.outcomes:
        entry = outcome.result.to_dict()
        entry.update({
            "role": _shard_role(outcome.result.shard, result),
            "final_pass": (2 if outcome.result.shard
                           in result.pass2_shards else 1),
            "retries": outcome.retries,
            "retry_successes": outcome.retry_successes,
            "power_cuts": outcome.power_cuts,
            "remounts": list(outcome.remounts),
            "evac_out_pages": len(outcome.evac_pages),
            "evac_in_pages": outcome.evac_in_pages,
            "evac_in_failures": outcome.evac_in_failures,
            "hedge_attempted": outcome.hedge_attempted,
            "hedge_refused": outcome.hedge_refused,
            "failover_served": outcome.failover_served,
        })
        shards.append(entry)
    routing = result.routing
    return {
        "schema": SCHEMA,
        "config": result.config.to_dict(),
        "service_est_ps": result.service_est_ps,
        "plan": {
            "kill_shard": result.roles.kill_shard,
            "hedge_target": result.roles.hedge_target,
            "hedged_writes": result.hedged_writes,
            "events": {
                str(shard): [event.to_dict() for event in events]
                for shard, events in sorted(result.events.items())},
        },
        "routing": {
            "impaired": list(routing.impaired),
            "survivors": list(routing.survivors),
            "skipped_hedged": routing.skipped_hedged,
            "evacuations": [{
                "source": evac.source,
                "donor": evac.donor,
                "pages_committed": evac.pages_committed,
                "pages_excluded_hedged": evac.pages_excluded_hedged,
                "pages_copied": len(evac.pages),
            } for evac in routing.evacuations],
            "failover_assigned": {
                str(donor): len(reqs)
                for donor, reqs in sorted(routing.failover.items())},
        },
        "tenants": tenants,
        "shards": shards,
        "totals": {
            "requests": sum(entry["offered"] for entry in tenants),
            "rejected": sum(entry["rejected"] for entry in tenants),
            "refused": sum(entry["refused"] for entry in tenants),
            "completed_primary": sum(entry["completed"]
                                     for entry in tenants),
            "completed_failover": sum(entry["failover"]["completed"]
                                      for entry in tenants),
            "rescued": sum(entry["rescued"] for entry in tenants),
            "failed_reads": sum(entry["failed_reads"]
                                for entry in tenants),
            "data_loss": result.data_loss,
            "sweep_pages": sum(entry["sweep_pages"]
                               for entry in shards),
            "violations": result.violations,
            "retries": sum(entry["retries"] for entry in shards),
            "power_cuts": sum(entry["power_cuts"] for entry in shards),
            "evacuated_pages": sum(entry["evac_in_pages"]
                                   for entry in shards),
        },
        "gates": {gate.name: gate.ok for gate in result.gates},
        "ok": result.ok,
    }
