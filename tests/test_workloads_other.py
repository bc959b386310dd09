"""Tests for file copy, STREAM validation, TPC-H, mixed load."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.device.nvdimmc import NVDIMMCSystem
from repro.workloads.filecopy import run_file_copy
from repro.workloads.mixed_load import run_mixed_load, _check_record, \
    _make_record
from repro.workloads.stream_bench import run_stream_validation
from repro.workloads.tpch import (TPCH_QUERIES, generate_query_trace,
                                  run_all_queries, run_query,
                                  simulate_hit_rate)
from repro.units import mb


DB_PAGES = 25_600     # 100 GB at 1/1024 scale
CACHE_16GB = 4_096    # 16 GB at 1/1024 scale


class TestFileCopy:
    def test_fig7_shape(self):
        """Fast while slots are free, collapsing past the cache size."""
        system = NVDIMMCSystem(cache_bytes=mb(8), device_bytes=mb(64))
        result = run_file_copy(system, file_bytes=mb(16), buckets=16)
        cache_gb = system.region.layout.slots_bytes / 2**30
        early = result.bandwidth_at_gb(cache_gb * 0.5)
        late = result.bandwidth_mb_s[-1]
        assert early > 5 * late
        assert result.peak_mb_s <= 520 * 1.05   # SSD-limited

    def test_fig7_floor_near_paper(self):
        system = NVDIMMCSystem(cache_bytes=mb(8), device_bytes=mb(64))
        result = run_file_copy(system, file_bytes=mb(24), buckets=24)
        # Paper floor: 68 MB/s (writes need a writeback+cachefill pair;
        # the fill of a never-written page costs no NAND time).
        assert 40 <= result.floor_mb_s <= 100


#: Entry points whose import must not load numpy: only a STREAM
#: validation run imports it.
NUMPY_FREE_MODULES = (
    "repro", "repro.cli", "repro.check.cli", "repro.experiments.runner",
    "repro.aging.campaign", "repro.fleet.frontend", "repro.fleet.chaos",
    "repro.recovery.explorer", "repro.health.soak", "repro.faults.campaign",
    "repro.workloads.mixed_load",
)


class TestStreamValidation:
    def test_only_stream_validation_imports_numpy(self):
        """A fresh interpreter imports every other entry point without
        loading numpy, which STREAM validation imports when it runs."""
        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_dir, env.get("PYTHONPATH")]))
        code = ("import importlib, sys\n"
                f"for name in {NUMPY_FREE_MODULES!r}:\n"
                "    importlib.import_module(name)\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.partition('.')[0] == 'numpy'))\n")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, env=env,
                                check=True)
        assert result.stdout.strip() == "[]"

    def test_aging_run_is_clean(self):
        """§VII-A: no corruption, no collisions, detector perfect."""
        result = run_stream_validation(iterations=2)
        assert result.clean
        assert result.kernels_checked == 6
        assert result.false_positives == 0
        assert result.false_negatives == 0
        assert result.refreshes_detected > 0
        assert result.device_bytes_moved > 0


class TestTPCH:
    def test_traces_are_deterministic(self):
        a = generate_query_trace(TPCH_QUERIES["Q5"], DB_PAGES, seed=3)
        b = generate_query_trace(TPCH_QUERIES["Q5"], DB_PAGES, seed=3)
        assert a == b

    def test_traces_stay_in_range(self):
        for name, spec in TPCH_QUERIES.items():
            trace = generate_query_trace(spec, DB_PAGES, max_accesses=2000)
            assert all(0 <= p < DB_PAGES for p in trace), name

    def test_q1_anchor(self):
        result = run_query(TPCH_QUERIES["Q1"], DB_PAGES, CACHE_16GB)
        assert result.slowdown == pytest.approx(3.3, rel=0.1)

    def test_q20_anchor(self):
        result = run_query(TPCH_QUERIES["Q20"], DB_PAGES, CACHE_16GB)
        assert result.slowdown == pytest.approx(78, rel=0.12)

    def test_all_queries_slower_than_baseline(self):
        results = run_all_queries(DB_PAGES, CACHE_16GB)
        assert len(results) == 22
        assert all(r.slowdown > 1.0 for r in results)

    def test_lru_beats_lrc_on_skewed_traces(self):
        """The §IV-B observation: LRC ignores use recency, so on the
        skewed HANA-like traces it evicts hot pages and loses to LRU at
        every cache size (per-query uniform-random traces are a known
        FIFO~LRU tie, so the aggregate traces are the right probe)."""
        for gb in (1, 4, 16):
            lrc = simulate_hit_rate(gb * 256, DB_PAGES, policy="lrc")
            lru = simulate_hit_rate(gb * 256, DB_PAGES, policy="lru")
            assert lru > lrc, f"{gb} GB: lru {lru} <= lrc {lrc}"

    def test_hit_rate_study_range(self):
        """§VII-B5: LRU hit rate 78.7 -> 99.3 % from 1 to 16 GB."""
        low = simulate_hit_rate(256, DB_PAGES, policy="lru")    # 1 GB
        high = simulate_hit_rate(4096, DB_PAGES, policy="lru")  # 16 GB
        assert 0.70 <= low <= 0.85
        assert 0.95 <= high <= 1.0

    def test_hit_rate_monotone_in_cache_size(self):
        rates = [simulate_hit_rate(256 * g, DB_PAGES, policy="lru")
                 for g in (1, 2, 4, 8, 16)]
        assert rates == sorted(rates)


class TestMixedLoad:
    def test_records_validate(self):
        record = _make_record(3, 7, 99)
        assert _check_record(record, 99)
        assert not _check_record(record, 98)
        assert not _check_record(b"\x00" * 4096, 99)

    def test_mixed_load_clean_with_eviction_pressure(self):
        """Users' pages bounce through Z-NAND and must stay intact."""
        system = NVDIMMCSystem(cache_bytes=mb(1), device_bytes=mb(32),
                               with_cpu_cache=True)
        result = run_mixed_load(system, users=60, transactions_per_user=6,
                                pages_per_user=10)
        assert result.clean
        assert system.driver.stats.evictions > 0   # pressure was real
        assert result.transactions == 360

    @pytest.mark.sanitizer_exempt
    def test_mixed_load_broken_coherence_corrupts(self):
        """With the §V-B bracket removed, validation catches corruption."""
        system = NVDIMMCSystem(cache_bytes=mb(1), device_bytes=mb(32),
                               with_cpu_cache=True,
                               conservative_dirty=False)
        system.driver.skip_coherence = True
        result = run_mixed_load(system, users=60, transactions_per_user=6,
                                pages_per_user=10)
        assert not result.clean
