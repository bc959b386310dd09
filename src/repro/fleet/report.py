"""The schema-pinned ``FLEET_*.json`` fleet serving report.

Mirrors the faults/soak/recovery reports: :data:`SCHEMA` pins the
shape, :data:`SHAPE` declares the payload that
:func:`repro.report.check` validates (``generated_at`` is the only
non-deterministic field), and :func:`fleet_payload` builds the body.

The report is the fleet's acceptance artifact: per-tenant QoS tables
(order-statistic p50/p99/p999 vs declared SLOs, admit ratio), per-shard
serving and queue telemetry, and the aggregated fleet health view — a
ladder-rung histogram over every shard's final
:class:`~repro.health.monitor.HealthMonitor` state plus degraded /
read-only / fail-stop shard counts — so the SLO gate and the fleet
health gate can both be checked from the artifact alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.health.report import HEALTH_LABEL
from repro.report import (BOOL, COUNT, INT, STR, TIMESTAMP, ListOf, MapOf,
                          one_of, schema_id)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.fleet.frontend import FleetResult

SCHEMA = schema_id("fleet", 1)

#: Per-tenant latency summary (:meth:`TenantQoS.latency_summary`).
LATENCY = dict.fromkeys(
    ("samples", "p50_ps", "p99_ps", "p999_ps", "max_ps"), COUNT)
#: Per-shard serving telemetry (:meth:`ShardResult.to_dict`).
SHARD = {
    **dict.fromkeys(
        ("shard", "requests", "admitted", "rejected", "refused",
         "completed", "queue_peak", "busy_ps", "span_ps",
         "utilization_x1000", "data_loss", "sweep_pages",
         "sweep_refused", "violations"), COUNT),
    "health": {"state": HEALTH_LABEL, "worst": HEALTH_LABEL,
               "counters": MapOf(COUNT), "transitions": COUNT},
}

SHAPE = {
    "schema": one_of(SCHEMA),
    "generated_at": TIMESTAMP,
    "config": {
        "shards": COUNT, "placement": STR, "quick": BOOL,
        "requests": COUNT, "seed": INT, "queue_bound": COUNT,
        "wear_shards": COUNT, "weights": ListOf(INT)},
    "service_est_ps": COUNT,
    "tenants": ListOf({
        "name": STR, "mix": STR, "weight": COUNT,
        **dict.fromkeys(
            ("offered", "admitted", "rejected", "refused", "completed",
             "failed_reads", "integrity_failures", "admit_ppm"), COUNT),
        "latency": LATENCY,
        "slo": dict.fromkeys(
            ("p50_ps", "p99_ps", "p999_ps", "min_admit_ppm"), COUNT),
        "slo_pass": dict.fromkeys(
            ("p50", "p99", "p999", "admit", "ok"), BOOL)},
        non_empty=True),
    "shards": ListOf(SHARD, non_empty=True),
    "health": {
        "histogram": dict.fromkeys(HEALTH_LABEL.choices, COUNT),
        "degraded_shards": COUNT, "read_only_shards": COUNT,
        "fail_stop_shards": COUNT},
    "totals": dict.fromkeys(
        ("requests", "admitted", "rejected", "refused", "completed",
         "failed_reads", "integrity_failures", "data_loss", "sweep_pages",
         "violations"), COUNT),
    "ok": BOOL,
}


def fleet_payload(result: "FleetResult") -> dict:
    """The report body (everything except ``generated_at``)."""
    tenants = [qos.to_dict() for qos in result.tenants]
    shards = [shard.to_dict() for shard in result.shards]
    histogram = result.health_histogram
    return {
        "schema": SCHEMA,
        "config": result.config.to_dict(),
        "service_est_ps": result.service_est_ps,
        "tenants": tenants,
        "shards": shards,
        "health": {
            "histogram": {state: histogram.get(state, 0)
                          for state in HEALTH_LABEL.choices},
            "degraded_shards": sum(
                1 for shard in result.shards
                if shard.health.get("state") not in ("ok", None)),
            "read_only_shards": sum(
                1 for shard in result.shards
                if shard.health.get("state") == "read_only"),
            "fail_stop_shards": sum(
                1 for shard in result.shards
                if shard.health.get("state") == "fail_stop"),
        },
        "totals": {
            "requests": sum(qos["offered"] for qos in tenants),
            "admitted": sum(qos["admitted"] for qos in tenants),
            "rejected": sum(qos["rejected"] for qos in tenants),
            "refused": sum(qos["refused"] for qos in tenants),
            "completed": sum(qos["completed"] for qos in tenants),
            "failed_reads": sum(qos["failed_reads"] for qos in tenants),
            "integrity_failures": sum(
                qos["integrity_failures"] for qos in tenants),
            "data_loss": result.data_loss,
            "sweep_pages": sum(
                shard["sweep_pages"] for shard in shards),
            "violations": result.violations,
        },
        "ok": result.ok,
    }
