"""The schema-pinned ``AGING_*.json`` endurance-campaign report.

Mirrors :mod:`repro.health.report`: :data:`SCHEMA` names the pinned
revision and :data:`SHAPE` declares the payload that
:func:`repro.report.check` validates (the wall-clock ``generated_at``
is the *only* non-deterministic field).

The report carries the whole fleet's life stories — per-shard epoch
logs and ladder transitions, per-strategy survival curves, wear-spread
and WAF aggregates, time-to-read_only percentiles — plus the analytic
cross-check against the paper's §VII-A lifetime projection, so every
acceptance gate is checkable from the artifact alone.
"""

from __future__ import annotations

from repro.health.report import HEALTH_LABEL, TRANSITION
from repro.report import (BOOL, COUNT, INT, STR, TIMESTAMP, ListOf, MapOf,
                          one_of, schema_id)

SCHEMA = schema_id("aging", 1)

_EPOCH = {
    **dict.fromkeys(
        ("epoch", "writes", "reads", "refused_writes", "media_errors",
         "data_loss", "retired_free_blocks", "relocations",
         "grown_bad_blocks", "bad_blocks", "free_blocks", "max_erase",
         "mean_erase_x1000", "wear_spread_x1000"), COUNT),
    "health": HEALTH_LABEL,
}
_SHARD = {
    "strategy": STR,
    **dict.fromkeys(
        ("shard", "wear_accel", "epochs_run", "read_only_epoch",
         "waf_x1000", "wear_spread_x1000", "data_loss",
         "grown_bad_blocks", "scrub_relocations", "retired_free_blocks"),
        COUNT),
    "end_state": HEALTH_LABEL,
    "epoch_log": ListOf(_EPOCH),
    "ladder": ListOf(TRANSITION),
}

SHAPE = {
    "schema": one_of(SCHEMA),
    "generated_at": TIMESTAMP,
    "seed": INT,
    "quick": BOOL,
    "config": {
        **dict.fromkeys(
            ("shards", "max_epochs", "footprint_pages", "epoch_steps",
             "years_per_epoch_x1000", "wear_accel", "bad_block_budget",
             "static_level_period", "gc_headroom", "scrub_windows"),
            COUNT),
        "strategies": ListOf(STR, non_empty=True)},
    "strategies": ListOf({
        "strategy": STR,
        "mean_wear_spread_x1000": COUNT,
        "mean_waf_x1000": COUNT,
        "survival_curve": ListOf(COUNT),
        "time_to_read_only": dict.fromkeys(
            ("reached", "censored", "p50_epochs", "p90_epochs"), COUNT),
        "shards": ListOf(_SHARD, non_empty=True)},
        non_empty=True),
    "ladder_histogram": MapOf(COUNT),
    "analytic": dict.fromkeys(
        ("paper_waf_x1000", "paper_lifetime_years_x1000",
         "measured_waf_x1000", "projected_lifetime_years_x1000"), COUNT),
    "totals": dict.fromkeys(
        ("shards", "epochs", "writes", "reads", "refused_writes",
         "media_errors", "data_loss", "grown_bad_blocks",
         "scrub_relocations", "retired_free_blocks", "violations"), COUNT),
    "gates": dict.fromkeys(
        ("zero_loss", "sanitizers_quiet", "graceful_order",
         "leveling_beats_greedy"), BOOL),
    "ok": BOOL,
}
