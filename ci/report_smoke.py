"""Check the report a CI smoke job wrote, through ``repro.report.check``.

Usage, from the repository root with ``PYTHONPATH=src``::

    python ci/report_smoke.py KIND DIR [RERUN_DIR]

``KIND`` is one of ``faults``, ``faults-full``, ``soak``, ``crash``,
``crash-full``, ``fleet``, ``chaos`` or ``aging``.  The single
``<PREFIX>_*.json`` report in ``DIR`` must match its declared ``SHAPE``
and pass the job's own assertions (crash and crash-full: ok, >= 50 cut
points, >= 1 drain cut, no committed loss, no torn page served; soak:
zero data loss).  With
``RERUN_DIR`` the rerun's report must equal the first byte for byte
once ``generated_at`` is nulled.

The report must also equal the one the smoke job has always produced:
the SHA-256 of its body (``generated_at`` nulled) must match the kind's
digest in ``ci/report_pins.json``.  The pins hold for the quick
``--seed 0`` run of each harness; ``faults-full`` pins the full fault
matrix (``faults run --seed 0``, all 21 cells) and ``crash-full`` the
full crash sweep (``crash --seed 0``, a cut at every event index).  A
change that alters a
report on purpose replaces that kind's digest with the one this script
prints.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import glob
import hashlib
import importlib
import json
import pathlib
import sys

from repro.report import check

#: kind -> (report file prefix, module declaring its SHAPE)
REPORTS = {
    "faults": ("FAULTS", "repro.faults.report"),
    "faults-full": ("FAULTS", "repro.faults.report"),
    "soak": ("SOAK", "repro.health.report"),
    "crash": ("RECOVERY", "repro.recovery.report"),
    "crash-full": ("RECOVERY", "repro.recovery.report"),
    "fleet": ("FLEET", "repro.fleet.report"),
    "chaos": ("CHAOS", "repro.fleet.chaos_report"),
    "aging": ("AGING", "repro.aging.report"),
}


def crash_failures(payload: dict) -> list[str]:
    totals = payload["totals"]
    print(f"cut_points={totals['cut_points']} "
          f"drain_cuts={totals['drain_cuts']} "
          f"committed_lost={totals['committed_lost']} "
          f"torn_served={totals['torn_served']} "
          f"failed_runs={totals['failed_runs']}")
    return [message for failed, message in (
        (payload["ok"] is not True, "ok is not true"),
        (totals["cut_points"] < 50, "fewer than 50 cut points"),
        (totals["drain_cuts"] < 1, "no cut point inside the drain"),
        (totals["committed_lost"] != 0, "committed data lost"),
        (totals["torn_served"] != 0, "torn page served"),
    ) if failed]


def soak_failures(payload: dict) -> list[str]:
    loss = payload["totals"]["data_loss"]
    print(f"data_loss={loss}")
    return [f"{loss} pages lost"] if loss else []


ASSERTIONS = {"crash": crash_failures, "crash-full": crash_failures,
              "soak": soak_failures}

#: kind -> SHA-256 of the ``--seed 0`` report's :func:`body`
PINS = pathlib.Path(__file__).with_name("report_pins.json")


def load(kind: str, directory: str) -> tuple[str, dict, list[str]]:
    """The report in ``directory`` and its shape problems."""
    prefix, module = REPORTS[kind]
    [path] = glob.glob(f"{directory}/{prefix}_*.json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    shape = importlib.import_module(module).SHAPE
    return path, payload, [f"schema problem: {problem}"
                           for problem in check(shape, payload)]


def body(payload: dict) -> str:
    """The report text with the wall-clock timestamp nulled."""
    return json.dumps(dict(payload, generated_at=None), indent=2,
                      sort_keys=True)


def pin_failures(kind: str, payload: dict) -> list[str]:
    pinned = json.loads(PINS.read_text(encoding="utf-8"))[kind]
    actual = hashlib.sha256(body(payload).encode("utf-8")).hexdigest()
    print(f"{kind} report sha256 {actual}, pinned {pinned}")
    if actual == pinned:
        return []
    return [f"{kind} report differs from its pin: sha256 {actual}, "
            f"pinned {pinned}"]


def main(argv: list[str]) -> int:
    kind, directory, *rerun = argv
    path, payload, failures = load(kind, directory)
    print(f"{path}: {len(failures)} schema problems")
    if not failures and kind in ASSERTIONS:
        failures += ASSERTIONS[kind](payload)
    failures += pin_failures(kind, payload)
    if rerun:
        rerun_path, rerun_payload, problems = load(kind, rerun[0])
        failures += [f"{rerun_path}: {problem}" for problem in problems]
        first, second = body(payload), body(rerun_payload)
        match = first == second
        print(f"reports {len(first)} bytes, "
              f"{'identical' if match else 'DIFFER'} "
              "after normalizing generated_at")
        if not match:
            failures.append(f"{rerun_path} differs from {path}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
