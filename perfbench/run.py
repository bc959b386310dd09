"""Repository benchmark: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload {protocol,fleet,aging,mixed}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every measurement happens in a fresh
interpreter (``worker.py``) so peak memory and import cost never carry
over.  ``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` makes an untraced run and a separate traced run with
timing spans around each layer, checks that both produced the same
digest and work counters, and reports the per-layer metrics.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import end_to_end, per_layer  # noqa: E402

#: Extra set-up-only interpreters per run; with the measuring one,
#: ``setup_s`` is the fastest of this many + 1 samples.
SETUP_SAMPLES = 8
#: Per-interpreter wall-clock limit (the whole run must end in 180 s).
WORKER_TIMEOUT_S = 150
OUT_DIR = ".perfbench"


def run_worker(workload: str, seed: int, mode: str, seconds: float = 0.0,
               spans: str | None = None) -> dict:
    """One fresh interpreter; returns its result or raises."""
    env = dict(os.environ)
    # Outputs never depend on the hash seed (a self-test checks that),
    # but dict layouts and so host time do: pin it across runs.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker failed (exit {proc.returncode}):\n"
                           f"{proc.stderr.strip()[-2000:]}")
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("PERFBENCH_RESULT "):
            return json.loads(line.split(" ", 1)[1])
    raise RuntimeError(f"{mode} worker printed no result")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("protocol", "fleet", "aging", "mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        print("run from the root of a checkout: src/repro not found",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def setups(count: int) -> list[dict]:
        return [run_worker(args.workload, args.seed, "setup")
                for _ in range(count)]

    try:
        if args.trace:
            main_run = run_worker(args.workload, args.seed, "measure",
                                  args.seconds)
            traced = run_worker(
                args.workload, args.seed, "traced",
                spans=os.path.join(OUT_DIR, f"spans-{tag}.tsv.gz"))
            metrics, checks = per_layer(main_run, traced)
        else:
            # Set-up samples on both sides of the measuring run meet
            # more of the host's slow and quiet phases.
            before = setups(SETUP_SAMPLES // 2)
            main_run = run_worker(args.workload, args.seed, "measure",
                                  args.seconds)
            after = setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
            metrics, checks = end_to_end(main_run, before + after)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = all(ok for ok, _ in checks.values())
    for name, (ok, detail) in sorted(checks.items()):
        print(f"check {name:28s} {'ok' if ok else 'FAIL'}  {detail}")
    print(f"digest {main_run['digest']}")
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"run": main_run, "metrics": metrics}, handle,
                  indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
