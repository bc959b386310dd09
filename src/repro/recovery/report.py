"""The schema-pinned ``RECOVERY_*.json`` crash-exploration report.

Same contract as the faults and soak reports: :data:`SCHEMA` names the
revision and :data:`SHAPE` declares the payload that
:func:`repro.report.check` validates (the wall-clock ``generated_at``
is the *only* non-deterministic field).

Shape notes:

``events``
    the explorable space: total hook-site visits of the fault-free
    baseline, split into the workload's and the §V-C drain's share.
``cut_points``
    every event index actually explored (full mode: all of them;
    ``--quick``: stride samples plus bisected boundaries).
``windows``
    consecutive cut points folded while their outcome signature is
    unchanged — the compressed behaviour map of the event space.
``totals.committed_lost`` / ``totals.torn_served``
    the two always-illegal outcomes; a clean sweep reports zero for
    both (``acked_uncommitted`` is legal only under an interrupted
    drain, and ``failed_runs`` counts cut points where any invariant
    broke).
"""

from __future__ import annotations

from repro.report import (BOOL, COUNT, INT, TIMESTAMP, Leaf, ListOf, MapOf,
                          one_of, schema_id)

SCHEMA = schema_id("recovery", 1)


def _sorted_cut_points(value: object) -> bool:
    return (isinstance(value, list)
            and all(type(p) is int and p >= 1 for p in value)
            and value == sorted(set(value)))


SHAPE = {
    "schema": one_of(SCHEMA),
    "generated_at": TIMESTAMP,
    "seed": INT,
    "quick": BOOL,
    "events": dict.fromkeys(("total", "workload", "drain"), COUNT),
    "cut_points": Leaf("a sorted list of distinct positive ints",
                       _sorted_cut_points, [1]),
    "windows": ListOf({
        "start": COUNT, "end": COUNT, "runs": COUNT,
        "committed_lost": COUNT, "torn_served": COUNT,
        "acked_uncommitted": COUNT, "drain_interrupted": BOOL,
        "remount_writable": BOOL, "violations": COUNT}),
    "sites": MapOf(COUNT),
    "totals": dict.fromkeys(
        ("cut_points", "drain_cuts", "committed_lost", "torn_served",
         "acked_uncommitted", "torn_quarantined", "sanitizer_violations",
         "replay_recovered", "replay_lost", "failed_runs"), COUNT),
    "ok": BOOL,
}
