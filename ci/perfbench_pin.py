"""Print every host-independent value of a traced perfbench pass.

Usage, from anywhere in a checkout (no arguments)::

    python ci/perfbench_pin.py > /tmp/pin.json
    diff -u ci/perfbench_pin.json /tmp/pin.json

Each workload that ``BENCHMARK.json`` declares runs through
``perfbench/run.py --seed 0 --seconds 1 --trace 1``.  The script then
reads ``.perfbench/result-<workload>-seed0-trace1.json`` and prints one
JSON object with one ``"<workload>/<path>": value`` line per value in
it, except the values that measure the host (:data:`HOST_KEYS`).  What
is left — the digest, the work counters, span call counts, simulated
latencies, snapshot blob bytes — is a function of the tree alone, so a
line that moves names the workload and the counter whose behaviour
changed.  A counter perfbench adds is pinned without editing this file.

Wall time never enters the pin; the result files keep it.  A change
that moves behaviour on purpose regenerates ``ci/perfbench_pin.json``
and says why.  ``sim.snapshot.blob_bytes`` is a pickle size, so the
pin holds for one Python and numpy version, the ones the CI job pins.
Exits non-zero, with perfbench's output on stderr, if a run fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Last path components whose values measure the host, not the
#: program: repetition and reference-loop times, set-up time, peak RSS,
#: span self time and the traced/untraced time ratio.
HOST_KEYS = frozenset({"walls", "refs", "setup_s", "peak_rss_mb", "self_s",
                       "trace_overhead_x"})


def _leaves(node, path: str):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, f"{path}.{key}")
    else:
        yield path, node


def pinned(workload: str) -> dict:
    """The host-independent values of one traced perfbench run."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"perfbench {workload} failed "
                         f"(exit {proc.returncode})")
    path = os.path.join(ROOT, ".perfbench",
                        f"result-{workload}-seed0-trace1.json")
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    values = dict(_leaves(result["run"], f"{workload}/run"))
    values.update((f"{workload}/metrics.{name}", value)
                  for name, (value, _unit) in result["metrics"].items())
    return {key: value for key, value in values.items()
            if key.rsplit(".", 1)[-1] not in HOST_KEYS}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    pin: dict = {}
    for workload in workloads:
        pin.update(pinned(workload))
    print(json.dumps(pin, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
