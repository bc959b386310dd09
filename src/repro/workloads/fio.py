"""A FIO-like job engine over the simulated DAX systems.

Reproduces the methodology of §VI/§VII-B: jobs specify the access
pattern (``randread`` / ``randwrite`` / ``read`` / ``write`` /
``randrw``), block size, thread count and footprint; the engine drives
``system.op`` exactly as FIO's libpmem ioengine drives loads/stores on
a DAX mapping (no page cache, one outstanding access per thread).

Threads interleave by simulated time: at every step the thread with the
earliest cursor issues its next operation, so cross-thread contention
on the shared memory channel and on the device's CP mailbox emerges
naturally rather than being post-processed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.units import PAGE_4K, bandwidth_mb_s, iops
from repro.analysis.stats import LatencyAccumulator


RW_PATTERNS = ("read", "write", "randread", "randwrite", "randrw")


@dataclass(frozen=True)
class FIOJob:
    """One FIO job description (the knobs the paper sweeps)."""

    name: str = "job"
    rw: str = "randread"
    bs: int = PAGE_4K                  # block size in bytes
    size: int = 64 * 1024 * 1024       # file footprint in bytes
    numjobs: int = 1                   # thread count
    iodepth: int = 1                   # kept for fidelity; libpmem is sync
    nops: int = 1000                   # operations per thread
    rwmixread: int = 50                # % reads for randrw
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.rw not in RW_PATTERNS:
            raise ConfigError(f"unknown rw pattern {self.rw!r}")
        if self.bs <= 0 or self.bs > self.size:
            raise ConfigError(
                f"block size must be in (0, {self.size}], got {self.bs}")
        if self.numjobs < 1:
            raise ConfigError(f"numjobs must be >= 1, got {self.numjobs}")
        if self.nops < 1:
            raise ConfigError(f"nops must be >= 1, got {self.nops}")

    @property
    def is_random(self) -> bool:
        return self.rw.startswith("rand")

    @property
    def total_ops(self) -> int:
        return self.numjobs * self.nops


@dataclass
class FIOResult:
    """Aggregated job outcome, in the units the paper reports."""

    job: FIOJob
    span_ps: int
    total_ops: int
    total_bytes: int
    latency: LatencyAccumulator = field(default_factory=LatencyAccumulator)

    @property
    def iops(self) -> float:
        return iops(self.total_ops, self.span_ps)

    @property
    def kiops(self) -> float:
        return self.iops / 1e3

    @property
    def bandwidth_mb_s(self) -> float:
        return bandwidth_mb_s(self.total_bytes, self.span_ps)

    def __str__(self) -> str:
        return (f"{self.job.name}: {self.kiops:.1f} KIOPS, "
                f"{self.bandwidth_mb_s:.1f} MB/s, "
                f"lat mean {self.latency.mean_us:.2f} us "
                f"p99 {self.latency.percentile_us(99):.2f} us")


class _Thread:
    """Per-thread offset stream and time cursor."""

    def __init__(self, job: FIOJob, index: int) -> None:
        self.job = job
        self.rng = random.Random(job.seed ^ (index * 0x9E3779B97F4A7C15))
        self.cursor_ps = 0
        self.last_end_ps = 0
        self.ops_done = 0
        self._seq_offset = (job.size // job.numjobs) * index
        self._seq_offset -= self._seq_offset % job.bs

    def next_offset(self) -> int:
        job = self.job
        max_blocks = job.size // job.bs
        if job.is_random:
            return self.rng.randrange(max_blocks) * job.bs
        offset = self._seq_offset
        self._seq_offset += job.bs
        if self._seq_offset + job.bs > job.size:
            self._seq_offset = 0
        return offset

    def next_is_write(self) -> bool:
        job = self.job
        if job.rw in ("read", "randread"):
            return False
        if job.rw in ("write", "randwrite"):
            return True
        return self.rng.randrange(100) >= job.rwmixread


class FIORunner:
    """Runs FIO jobs against a DAX system."""

    def __init__(self, system) -> None:
        self.system = system

    def prefault(self, size: int, dirty: bool = False) -> int:
        """Touch every 4 KB page of the footprint (FIO's file layout /
        warmup pass); returns the simulated time consumed."""
        t = 0
        for page in range(-(-size // PAGE_4K)):
            t = self.system.resolve_page(page, t, dirty)
        return t

    def run(self, job: FIOJob, warmup: bool = True,
            start_ps: int | None = None) -> FIOResult:
        """Execute a job; with ``warmup`` the footprint is pre-faulted
        so the measurement captures steady-state (Cached) behaviour —
        exactly how FIO lays out its file before the timed phase."""
        t0 = start_ps if start_ps is not None else 0
        t0 = max(t0, getattr(self.system, "now_floor_ps", 0))
        if warmup:
            t0 = max(t0, self.prefault(job.size))
        threads = [_Thread(job, i) for i in range(job.numjobs)]
        for thread in threads:
            thread.cursor_ps = t0
        result = FIOResult(job=job, span_ps=0, total_ops=0, total_bytes=0)
        remaining = job.total_ops
        while remaining > 0:
            thread = min(threads, key=lambda th: th.cursor_ps)
            if thread.ops_done >= job.nops:
                thread.cursor_ps = 1 << 62   # retire this thread
                continue
            offset = thread.next_offset()
            is_write = thread.next_is_write()
            end = self.system.op(offset, job.bs, is_write, thread.cursor_ps)
            result.latency.record(end - thread.cursor_ps)
            thread.cursor_ps = end
            thread.last_end_ps = end
            thread.ops_done += 1
            remaining -= 1
        finish = max(th.last_end_ps for th in threads)
        result.span_ps = finish - t0
        result.total_ops = job.total_ops
        result.total_bytes = job.total_ops * job.bs
        return result
