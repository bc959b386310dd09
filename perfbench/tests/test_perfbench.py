"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

from __future__ import annotations

import json
import os
import pickle
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from metrics import (END_TO_END, REFERENCE_S, host_s,  # noqa: E402
                     per_layer_catalog)
from tracing import SpanRecorder, layer_self_ns, self_times  # noqa: E402


# -- spans ---------------------------------------------------------------------------


def test_self_time_of_a_nested_call_tree():
    # a [0,100) holds b [10,40) and c [50,90); b holds d [20,30).
    spans = [
        (0, -1, 0, "x.a", 0, 100),
        (1, 0, 0, "y.b", 10, 40),
        (2, 1, 0, "y.d", 20, 30),
        (3, 0, 0, "y.c", 50, 90),
        (4, -1, 4, "x.a", 200, 205),
    ]
    assert self_times(spans) == {
        "x.a": (2, 100 - 30 - 40 + 5),
        "y.b": (1, 30 - 10),
        "y.d": (1, 10),
        "y.c": (1, 40),
    }
    assert layer_self_ns(self_times(spans)) == {"x.a": 35, "y.b": 20,
                                                "y.d": 10, "y.c": 40}


class _Layer:
    def outer(self, depth):
        return self.inner(depth) + 1

    def inner(self, depth):
        return self.outer(depth - 1) if depth else 0


def test_recorder_links_parents_and_roots_and_uninstalls():
    original = _Layer.__dict__["outer"]
    recorder = SpanRecorder()
    targets = (("t.outer", __name__, "_Layer", "outer"),
               ("t.inner", __name__, "_Layer", "inner"))
    recorder.install(targets)
    assert _Layer().outer(1) == 2
    _Layer().inner(0)
    recorder.uninstall()
    assert _Layer.__dict__["outer"] is original

    spans = list(recorder.spans())
    # outer(1) -> inner(1) -> outer(0) -> inner(0); then a lone inner(0).
    assert [(s[0], s[1], s[2], s[3]) for s in spans] == [
        (0, -1, 0, "t.outer"), (1, 0, 0, "t.inner"),
        (2, 1, 0, "t.outer"), (3, 2, 0, "t.inner"),
        (4, -1, 4, "t.inner")]
    for _id, parent, _root, _name, start, end in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][4] <= start and end <= spans[parent][5]
    per_span = self_times(spans)
    total = sum(self_ns for _calls, self_ns in per_span.values())
    assert total == (spans[0][5] - spans[0][4]) + (spans[4][5] - spans[4][4])


# -- work counters -------------------------------------------------------------------


def test_counters_follow_objects_through_snapshots():
    from counters import WorkCounters
    from repro.kernel.nvdc import NvdcStats
    counters = WorkCounters()
    counters.install()
    try:
        stats = NvdcStats()
        stats.hits += 3
        clone = pickle.loads(pickle.dumps(stats))   # a snapshot fork
        clone.hits += 2                             # work done by the fork
        del stats
        assert counters.harvest()["kernel.nvdc.hits"] == 5
        clone.misses += 1
        assert counters.harvest()["kernel.nvdc.misses"] == 1
        del clone
        assert counters.harvest()["kernel.nvdc.hits"] == 5
    finally:
        counters.uninstall()
    assert "__del__" not in NvdcStats.__dict__


# -- determinism ---------------------------------------------------------------------

_SMALL_RUN = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
from counters import WorkCounters
workloads.PROTOCOL_ITERATIONS = 1
workloads.PROTOCOL_AGENT_PAGES = 16
workloads.FLEET_REQUESTS = 300
workloads.MIXED_USERS = 20
counters = WorkCounters()
counters.install()
out = {{}}
for name in ("protocol", "fleet", "aging", "mixed"):
    workload = workloads.WORKLOADS[name]()
    workload.setup(3)
    rep = workload.rep()
    out[name] = [rep.ok, rep.digest, rep.sim, counters.harvest()]
print(json.dumps(out, sort_keys=True))
"""


def _small_run(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c",
         _SMALL_RUN.format(bench=BENCH, src=os.path.join(ROOT, "src"))],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
        check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_digests_and_counters_ignore_the_hash_seed():
    first, second = _small_run("0"), _small_run("4242")
    assert first == second
    for name, (ok, _digest, _sim, counters) in first.items():
        assert ok, name
    assert first["protocol"][3]["ddr.bus.commands_issued"] > 0
    assert first["fleet"][3]["kernel.nvdc.hits"] > 0
    assert first["aging"][3]["nand.ftl.gc_invocations"] > 0
    assert first["mixed"][3]["cpu.cache.hits"] > 0


# -- metrics -------------------------------------------------------------------------


def test_host_time_is_in_units_of_the_fastest_reference_loop():
    # A run whose fastest reference loop took twice REFERENCE_S ran on
    # a host half as fast: its seconds count half.
    refs = [3 * REFERENCE_S, 2 * REFERENCE_S, 5 * REFERENCE_S]
    assert host_s(0.5, refs) == pytest.approx(0.25)
    assert host_s(0.5, [REFERENCE_S]) == pytest.approx(0.5)


# -- metric catalog ------------------------------------------------------------------


def test_metric_names_are_valid_and_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    name_re = re.compile(r"[A-Za-z0-9_.-]+")
    for section, catalog in (("end_to_end", END_TO_END),
                             ("per_layer", per_layer_catalog())):
        entries = {m["name"]: (m["unit"], m["better"])
                   for m in declared[section]}
        assert entries == catalog, section
        for name in catalog:
            assert name_re.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in declared["workloads"]} == {
        "protocol", "fleet", "aging", "mixed"}
