"""One workload run in a fresh interpreter (started by ``run.py``).

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                [--seconds S] [--spans PATH]

Modes:

* ``setup``    -- imports plus set-up only; reports ``setup_s``;
* ``measure``  -- set-up, then repetitions until ``--seconds`` have
  passed since the first began (at least one), untraced;
* ``traced``   -- layer spans installed before set-up, then exactly one
  repetition; spans are written to ``--spans``.

The last stdout line is ``PERFBENCH_RESULT <json>``.  A fresh
interpreter per run keeps ``ru_maxrss`` and import cost from carrying
over between workloads.  The run fails (exit 1) if a repetition fails
its workload gate or differs from the first repetition in digest or
work counters.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from counters import WorkCounters, delta  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULT_PREFIX = "PERFBENCH_RESULT "


class _Slot:
    """A small object with attributes, as the simulator's are."""

    __slots__ = ("key", "value", "uses")

    def __init__(self, key: int) -> None:
        self.key, self.value, self.uses = key, 0, 0

    def touch(self, value: int) -> int:
        self.uses += 1
        self.value = (self.value + value) & 0xFFFF
        return self.value


def reference_s(rounds: int = 16_000) -> float:
    """Host seconds of a fixed pure-Python loop (method calls, attribute
    updates, dict and list traffic, small tuples: the simulator's mix).

    It is timed beside every repetition as a gauge of how fast the host
    runs Python in this run; ``metrics.host_s`` divides by its fastest
    time.  The loop is the benchmark's own code, so no change to the
    program moves it."""
    started = time.perf_counter()
    table = {key: _Slot(key) for key in range(256)}
    queue: list[tuple[int, int]] = []
    total = 0
    for step in range(rounds):
        slot = table.get((step * 37) & 255)
        total += slot.touch(step)
        queue.append((step, total))
        if len(queue) > 64:
            total ^= queue.pop(0)[1]
    if total < 0:
        raise AssertionError("unreachable")
    return time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (fails here outside a checkout)
    counters = WorkCounters()
    counters.install()
    recorder = None
    if args.mode == "traced":
        from tracing import SpanRecorder
        recorder = SpanRecorder()
        recorder.install()

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_s = time.perf_counter() - STARTED
    out: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(RESULT_PREFIX + json.dumps(out))
        return 0

    walls: list[float] = []
    refs: list[float] = []      # reference loop before each repetition
    first = None
    first_counters = None
    deadline = time.perf_counter() + args.seconds
    while True:
        before = counters.harvest()
        refs.append(reference_s())
        started = time.perf_counter()
        rep = workload.rep()
        wall = time.perf_counter() - started
        after = counters.harvest()
        work = delta(after, before)
        if rep.ops is None:
            rep.ops = work[workload.ops_counter]
        if rep.attempted is None:
            rep.attempted = rep.ops
        if not rep.ok:
            print(f"{args.workload}: {rep.problem}", file=sys.stderr)
            return 1
        if first is None:
            first, first_counters = rep, work
            # Work of set-up plus one repetition: what the traced run,
            # which makes exactly one repetition, is compared against.
            out["counters"] = after
        elif (rep.digest, rep.sim, work) != (first.digest, first.sim,
                                             first_counters):
            print(f"{args.workload}: repetition {len(walls) + 1} differs "
                  f"from the first (digest or work counters)",
                  file=sys.stderr)
            return 1
        walls.append(wall)
        if recorder is not None or time.perf_counter() >= deadline:
            break
    refs.append(reference_s())  # ... and one after the last

    if recorder is not None:
        recorder.uninstall()
        from tracing import self_times
        per_span = self_times(recorder.spans())
        out["spans"] = {name: list(value) for name, value in per_span.items()}
        out["blob_bytes"] = recorder.blob_bytes
        if args.spans:
            out["span_count"] = recorder.write(args.spans)
    out.update(
        walls=walls, refs=refs,
        ops=first.ops, attempted=first.attempted, failed=first.failed,
        digest=first.digest, sim=first.sim,
        counters_rep=first_counters,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(RESULT_PREFIX + json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
