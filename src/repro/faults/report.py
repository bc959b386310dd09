"""The schema-pinned ``FAULTS_*.json`` campaign report.

The report is the artifact CI archives and the determinism acceptance
check diffs, so its shape is pinned: :data:`SCHEMA` names the current
revision and :data:`SHAPE` declares the payload that
:func:`repro.report.check` validates (the wall-clock ``generated_at``
is the *only* non-deterministic field).

Count semantics per cell:

``injected``
    fault events that actually happened (consumed corruptions, applied
    DMA shortfalls, fired power cuts, commands observed under a noise
    burst) — not merely armed.
``detected``
    events the stack noticed through a resilience mechanism (CP
    retries/timeouts, partial-transfer continuations, FTL program
    retries, ECC read retries, caught power-loss interrupts).
``recovered`` / ``lost``
    pages: ``lost`` counts shadow-copy pages that could not be read
    back intact after the cell (including post-power-loss replay);
    ``recovered`` is ``injected - lost`` for in-band faults and the
    replayed page count for power-loss cells.
"""

from __future__ import annotations

from repro.report import (BOOL, COUNT, INT, STR, TIMESTAMP, ListOf, MapOf,
                          one_of, schema_id)

SCHEMA = schema_id("faults", 1)

SHAPE = {
    "schema": one_of(SCHEMA),
    "generated_at": TIMESTAMP,
    "seed": INT,
    "quick": BOOL,
    "cells": ListOf({
        "fault": STR, "workload": STR, "cell_seed": COUNT,
        "recoverable": BOOL, "injected": COUNT, "detected": COUNT,
        "recovered": COUNT, "lost": COUNT, "violations": COUNT,
        "ok": BOOL, "notes": MapOf(COUNT)}),
    "totals": dict.fromkeys(
        ("cells", "failed_cells", "injected", "detected", "recovered",
         "lost", "violations"), COUNT),
}
