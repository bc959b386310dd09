"""Crash-consistent remount and the crash-point explorer.

The paper's battery exists for exactly one scenario: power dies and the
module must come back with every committed page intact (§V-C).  This
package is that scenario's proof machinery:

* :func:`recover_mount` — the cold-mount path: rebuild the FTL's L2P
  from per-page OOB stamps (max-seq wins, torn pages quarantined by
  CRC), re-seed the health ladder from media evidence, bring up a fresh
  driver over the surviving NAND, and audit the drain journal;
* :func:`~repro.recovery.explorer.explore` — a CrashMonkey/ALICE-style
  sweep: cut power at *every* event index a deterministic workload
  crosses (including inside the drain itself), remount, and check the
  recovery invariants;
* ``repro crash [--quick]`` — the CLI wrapper emitting a schema-pinned
  ``RECOVERY_<timestamp>.json`` (:data:`~repro.recovery.report.SCHEMA`).
"""

from repro.recovery.explorer import ExplorerResult, RunOutcome, explore
from repro.recovery.mount import MountReport, recover_mount
from repro.recovery.report import SCHEMA, SHAPE

__all__ = [
    "ExplorerResult",
    "MountReport",
    "RunOutcome",
    "SCHEMA",
    "SHAPE",
    "explore",
    "recover_mount",
]
