"""The schema-pinned ``SOAK_*.json`` long-run soak report.

Mirrors :mod:`repro.faults.report`: :data:`SCHEMA` names the pinned
revision and :data:`SHAPE` declares the payload that
:func:`repro.report.check` validates (the wall-clock ``generated_at``
is the *only* non-deterministic field).

The report carries the full health-state timeline (every ladder
transition with its cause) plus per-edge coverage counts, so the
acceptance gate — every ladder edge exercised, zero data loss, bounded
p99 degradation — can be checked from the artifact alone.
"""

from __future__ import annotations

from repro.health.monitor import LADDER_EDGES, HealthState
from repro.report import (BOOL, COUNT, INT, STR, TIMESTAMP, ListOf, MapOf,
                          one_of, schema_id)

SCHEMA = schema_id("soak", 1)

#: A health-ladder rung, as every report spells it.
HEALTH_LABEL = one_of(*sorted(state.label for state in HealthState))
#: One ladder transition (:meth:`HealthTransition.to_dict`).
TRANSITION = {"time_ps": COUNT, "from": HEALTH_LABEL, "to": HEALTH_LABEL,
              "reason": STR, "component": STR}

SHAPE = {
    "schema": one_of(SCHEMA),
    "generated_at": TIMESTAMP,
    "seed": INT,
    "quick": BOOL,
    "rounds": ListOf({
        "name": STR, "faults": ListOf(STR), "writes": COUNT,
        "reads": COUNT, "refused_writes": COUNT, "media_errors": COUNT,
        "data_loss": COUNT, "health_before": HEALTH_LABEL,
        "health_after": HEALTH_LABEL, "notes": MapOf(COUNT)},
        non_empty=True),
    "health_timeline": ListOf(TRANSITION),
    "edges": {f"{a}->{b}": COUNT for a, b in LADDER_EDGES},
    "latency": dict.fromkeys(
        ("samples", "clean_p50_ps", "clean_p99_ps", "soak_p50_ps",
         "soak_p99_ps", "p99_ratio_x1000", "p99_bound_x1000"), COUNT),
    "scrub": MapOf(COUNT),
    "counters": MapOf(COUNT),
    "totals": dict.fromkeys(
        ("rounds", "writes", "reads", "refused_writes", "media_errors",
         "data_loss", "violations"), COUNT),
    "ok": BOOL,
}
