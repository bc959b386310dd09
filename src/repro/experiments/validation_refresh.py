"""§VII-A — refresh-detection accuracy and serialisation validation.

The paper could not quantify detector accuracy analytically and relied
on aging: STREAM on all cores over the DRAM-cache area, device transfers
behind every REFRESH, result comparison each iteration — "the result
comparison did not report any inconsistency and no system fault like
memory errors occurred."

The reproduction runs the same aging loop on the command-accurate bus
and reports: data mismatches (must be 0), bus collisions (must be 0),
detector confusion counts (must be 0), and — as a *negative control* —
the same loop with the tRFC rule disabled, which must corrupt the
channel immediately.  Each of those is a claim on the record.
"""

from __future__ import annotations

from repro.analysis.results import ExperimentRecord
from repro.errors import ProtocolError
from repro.workloads.stream_bench import run_stream_validation


def run(iterations: int = 3) -> ExperimentRecord:
    record = ExperimentRecord(
        "validation", "Refresh detection / serialisation aging test")

    clean = run_stream_validation(iterations=iterations)
    record.add("data mismatches", "count", 0, clean.mismatches)
    record.add("bus collisions", "count", 0, clean.collisions)
    record.add("detector false positives", "count", 0,
               clean.false_positives)
    record.add("detector false negatives", "count", 0,
               clean.false_negatives)
    record.add("refreshes exercised", "count", None,
               clean.refreshes_detected)
    record.add("device bytes under tRFC", "bytes", None,
               clean.device_bytes_moved)

    # Negative control: break the rule, expect trouble.
    try:
        rogue = run_stream_validation(iterations=1,
                                      respect_windows=False)
        rogue_failures = rogue.collisions + rogue.mismatches
    except ProtocolError:
        rogue_failures = 1    # an illegal command is a failure too
    record.add("rogue-mode failures (want > 0)", "count", None,
               float(rogue_failures))
    record.note("rogue mode drives the bus right after REF, as an "
                "unserialised design would")
    record.claim("no data mismatch over the aging loop (§VII-A: no "
                 "inconsistency)", clean.mismatches == 0)
    record.claim("no bus collision (§VII-A: no system fault)",
                 clean.collisions == 0)
    record.claim("no detector false positive (§VII-A)",
                 clean.false_positives == 0)
    record.claim("no detector false negative (§VII-A)",
                 clean.false_negatives == 0)
    record.claim("the rogue negative control fails: serialising behind "
                 "REF is what keeps the channel safe",
                 rogue_failures > 0)
    return record
