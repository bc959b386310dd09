"""Fleet determinism: byte-identical reports, hash-seed independence.

The acceptance gates of the fleet subsystem: a run is a pure function
of its config — repeated runs and serial-vs-parallel runs render
byte-identical ``FLEET_*.json`` bodies — and nothing in the planning
pipeline leans on ``hash()``, so reports are identical across
``PYTHONHASHSEED`` values (the property that broke the experiment
runner once; see ``workloads/tpch.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro

from repro.fleet.frontend import run_fleet
from repro.fleet.placement import ZipfSampler
from repro.report import render_report

CONFIG = dict(quick=True, shards=2, requests=2000, seed=11)


def test_repeated_runs_render_byte_identical_reports():
    first = render_report(run_fleet(**CONFIG))
    second = render_report(run_fleet(**CONFIG))
    assert first == second


def test_parallel_run_matches_serial_byte_for_byte():
    serial = render_report(run_fleet(**CONFIG, jobs=1))
    parallel = render_report(run_fleet(**CONFIG, jobs=2))
    assert serial == parallel


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=500),
       theta=st.floats(min_value=0.0, max_value=3.0,
                       allow_nan=False, allow_infinity=False),
       seed=st.integers(min_value=0, max_value=2**31))
def test_zipf_sampler_is_seed_deterministic(n, theta, seed):
    a = ZipfSampler(n=n, theta=theta, seed=seed)
    b = ZipfSampler(n=n, theta=theta, seed=seed)
    draws = [a.sample() for _ in range(40)]
    assert draws == [b.sample() for _ in range(40)]
    assert all(0 <= draw < n for draw in draws)


_PLAN_DIGEST_SNIPPET = """
import zlib
from repro.fleet.frontend import Fleet, FleetConfig

fleet = Fleet(FleetConfig(quick=True, shards=3, requests=4000, seed=5,
                          placement={placement!r}))
digest = 0
for plan in fleet.plan(service_est_ps=40_000_000):
    for req in plan.requests:
        line = (f"{{plan.shard}}:{{req.seq}}:{{req.tenant}}:"
                f"{{req.arrival_ps}}:{{req.key}}:{{req.write}}:"
                f"{{req.version}}")
        digest = zlib.crc32(line.encode(), digest)
print(digest)
"""


def _plan_digest(placement: str, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         _PLAN_DIGEST_SNIPPET.format(placement=placement)],
        capture_output=True, text=True, env=env, check=True)
    return result.stdout.strip()


def test_planning_is_hash_seed_independent():
    for placement in ("round_robin", "capacity_weighted",
                      "tenant_pinned"):
        digests = {_plan_digest(placement, hashseed)
                   for hashseed in ("0", "12345")}
        assert len(digests) == 1, placement
