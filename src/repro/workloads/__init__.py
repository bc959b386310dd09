"""Workload generators and runners (Table II of the paper).

* :mod:`repro.workloads.fio` — a FIO-v3.10-like job engine (rw pattern,
  block size, numjobs/iodepth, libpmem-style DAX access) used for all
  the synthetic experiments of §VII-B.
* :mod:`repro.workloads.filecopy` — the §VII-B1 file-copy workload
  (SSD source at a fixed sequential rate -> /dev/nvdc0).
* :mod:`repro.workloads.stream_bench` — the modified STREAM loop of
  §VII-A that validates refresh-detection / bus-serialisation accuracy
  against reference data.
* :mod:`repro.workloads.tpch` — synthetic TPC-H SF-100 page-access
  traces on a HANA-like in-memory engine model (§VII-B5).
* :mod:`repro.workloads.mixed_load` — the SAP-style concurrent-user
  benchmark with per-transaction data validation (§VII-B5).
* :mod:`repro.workloads.shadow` — the shadowed host workload that the
  fault, soak and aging harnesses check zero committed loss with.
"""

from repro.workloads.fio import FIOJob, FIOResult, FIORunner
from repro.workloads.filecopy import FileCopyResult, run_file_copy
from repro.workloads.mixed_load import MixedLoadResult, run_mixed_load
from repro.workloads.stream_bench import StreamResult, run_stream_validation
from repro.workloads.tpch import (QuerySpec, TPCH_QUERIES, TPCHResult,
                                  generate_query_trace, run_query,
                                  simulate_hit_rate)

__all__ = [
    "FIOJob",
    "FIOResult",
    "FIORunner",
    "FileCopyResult",
    "run_file_copy",
    "MixedLoadResult",
    "run_mixed_load",
    "StreamResult",
    "run_stream_validation",
    "QuerySpec",
    "TPCH_QUERIES",
    "TPCHResult",
    "generate_query_trace",
    "run_query",
    "simulate_hit_rate",
]
