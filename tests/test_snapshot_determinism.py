"""Fork-vs-rerun determinism for ``repro.sim.snapshot``.

The whole point of COW snapshots is that a fork is *indistinguishable*
from a run that never stopped: same results, same trace tail, byte for
byte.  Each test here runs a workload in two phases — phase A executes
live, a :class:`SimSnapshot` captures the full root set, then phase B
runs twice: once on the live (golden) state and once on a restored
fork.  Goldens and forks must agree exactly.

Also covered: hypothesis round-trips for the engine heap and the FTL.
The harnesses' forks are checked against from-zero runs in
``tests/test_harness_fork_oracle.py``.
"""

import random
from functools import partial

from hypothesis import given, settings, strategies as st

from repro.ddr.bus import SharedBus
from repro.ddr.device import DRAMDevice
from repro.ddr.imc import IntegratedMemoryController
from repro.ddr.spec import NVDIMMC_1600
from repro.device.nvdimmc import NVDIMMCSystem
from repro.nand.device import NANDDie
from repro.nand.ftl import FlashTranslationLayer
from repro.nand.spec import ZNANDSpec
from repro.nvmc.agent import NVMCProtocolAgent
from repro.sim import Engine
from repro.sim.snapshot import SimSnapshot
from repro.units import PAGE_4K, kb, mb, us
from repro.workloads.filecopy import run_file_copy
from repro.workloads.fio import FIOJob, FIORunner
from repro.workloads.mixed_load import run_mixed_load
from repro.workloads.tpch import (TPCH_QUERIES, _SlotCache,
                                  generate_query_trace)


def fork(roots):
    """Capture ``roots`` and return an independent restored copy."""
    return SimSnapshot.capture(roots, label="test").restore()


class TestWorkloadForks:
    """Phase B on a fork must equal phase B on the golden run."""

    def test_fio_fork_matches_golden(self):
        def build():
            system = NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(16))
            runner = FIORunner(system)
            # Phase A: warm the footprint and run a small dirtying job.
            runner.run(FIOJob(rw="randwrite", size=mb(1), nops=200))
            return {"system": system, "runner": runner}

        def measure(roots):
            result = roots["runner"].run(
                FIOJob(rw="randrw", size=mb(1), nops=400, rwmixread=70),
                warmup=False)
            return (result.span_ps, result.total_ops, result.total_bytes,
                    result.latency.count, result.latency.min_ps,
                    result.latency.max_ps, round(result.latency.mean_us, 9))

        golden_roots = build()
        forked_roots = fork(golden_roots)
        assert measure(golden_roots) == measure(forked_roots)

    def test_filecopy_fork_matches_golden(self):
        def build():
            system = NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(32))
            # Phase A: a first copy leaves the cache and journal dirty.
            run_file_copy(system, file_bytes=mb(4), buckets=8)
            return {"system": system}

        def measure(roots):
            result = run_file_copy(roots["system"], file_bytes=mb(8),
                                   buckets=16)
            return (result.copied_gb, result.bandwidth_mb_s)

        golden_roots = build()
        forked_roots = fork(golden_roots)
        assert measure(golden_roots) == measure(forked_roots)

    def test_mixed_load_fork_matches_golden(self):
        def build():
            system = NVDIMMCSystem(cache_bytes=mb(1), device_bytes=mb(32))
            run_mixed_load(system, users=8, transactions_per_user=3,
                           pages_per_user=2, seed=5)
            return {"system": system}

        def measure(roots):
            result = run_mixed_load(roots["system"], users=12,
                                    transactions_per_user=4,
                                    pages_per_user=3, seed=6)
            return (result.users, result.transactions, result.reads,
                    result.writes, result.validation_failures,
                    result.final_sweep_pages, result.span_ps)

        golden_roots = build()
        forked_roots = fork(golden_roots)
        assert measure(golden_roots) == measure(forked_roots)

    def test_tpch_cache_fork_matches_golden(self):
        trace = generate_query_trace(TPCH_QUERIES["Q5"], db_pages=2000,
                                     seed=7)
        half = len(trace) // 2
        cache = _SlotCache(capacity_pages=128, policy_name="lrc")
        for page in trace[:half]:            # phase A
            cache.access(page)

        def measure(roots):
            c = roots["cache"]
            for page in trace[half:]:        # phase B
                c.access(page)
            return (c.hits, c.misses, c.hit_rate, sorted(c.members))

        golden_roots = {"cache": cache}
        forked_roots = fork(golden_roots)
        assert measure(golden_roots) == measure(forked_roots)

    def test_protocol_stack_fork_matches_golden(self):
        """The command-accurate DDR stack with the refresh loop armed."""
        def build():
            engine = Engine()
            device = DRAMDevice(NVDIMMC_1600, capacity_bytes=mb(4))
            bus = SharedBus(NVDIMMC_1600, device, raise_on_collision=True)
            imc = IntegratedMemoryController(engine, NVDIMMC_1600, bus)
            agent = NVMCProtocolAgent(NVDIMMC_1600, bus,
                                      respect_windows=True)
            imc.start_refresh_process()
            t = us(1)
            # Phase A: host writes plus agent traffic across refreshes.
            for i in range(4):
                t = imc.host_write(i * PAGE_4K, bytes([i + 1]) * PAGE_4K, t)
                agent.queue_write((16 + i) * PAGE_4K, bytes([i]) * PAGE_4K)
            engine.run(until=t + us(200))
            return {"engine": engine, "device": device, "bus": bus,
                    "imc": imc, "agent": agent, "t": t}

        def measure(roots):
            imc, engine, t = roots["imc"], roots["engine"], roots["t"]
            ends = []
            for i in range(4):               # phase B
                data, t = imc.host_read(i * PAGE_4K, PAGE_4K, t + us(1))
                ends.append((data[0], t))
                t = imc.host_write((4 + i) * PAGE_4K,
                                   bytes([0xA0 + i]) * PAGE_4K, t)
                ends.append(t)
            engine.run(until=t + us(500))
            return (ends, engine.now, imc.refreshes_issued,
                    roots["bus"].collision_count,
                    roots["agent"].stats.bytes_written,
                    roots["device"].peek(0, PAGE_4K))

        golden_roots = build()
        forked_roots = fork(golden_roots)
        assert measure(golden_roots) == measure(forked_roots)


def _note(log, tag):
    """Module-level callback target: picklable via ``partial``."""
    log.append(tag)


class TestEngineRoundtrip:
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_heap_survives_snapshot(self, delays):
        """A restored engine drains its heap in the exact golden order,
        including ties (heap sequence numbers ride along in the blob)."""
        def build():
            eng = Engine()
            log = []
            for i, delay in enumerate(delays):
                eng.call_after(delay, partial(_note, log, i))
            return {"engine": eng, "log": log}

        def drain(roots):
            roots["engine"].run()
            return roots["log"]

        golden_roots = build()
        forked_roots = fork(golden_roots)
        assert drain(golden_roots) == drain(forked_roots)


def _tiny_ftl(logical_blocks=8, pages_per_block=16, blocks=24):
    spec = ZNANDSpec(
        name="test", capacity_bytes=blocks * pages_per_block * kb(4),
        page_bytes=kb(4), pages_per_block=pages_per_block,
        planes_per_die=1, dies=1, initial_bad_block_ppm=0)
    return FlashTranslationLayer([NANDDie(spec, die_index=0)],
                                 logical_blocks * pages_per_block * kb(4))


class TestFTLRoundtrip:
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=120),
           st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_fork_continues_identically(self, lpns, seed):
        """Writes applied after the fork land on the same physical
        pages and keep the same mapping as the golden FTL — GC, wear
        accounting and free lists all travel through the blob."""
        ftl = _tiny_ftl()
        for i, lpn in enumerate(lpns):       # phase A
            ftl.write_page(lpn, bytes([i % 256]) * kb(4))

        def measure(roots):
            f = roots["ftl"]
            rng = random.Random(seed)
            outcomes = []
            for _ in range(40):              # phase B
                lpn = rng.randrange(64)
                ppa, _ = f.write_page(lpn, bytes([rng.randrange(256)]) * kb(4))
                outcomes.append((lpn, repr(ppa)))
            reads = [(lpn, f.read_page(lpn)[0][0]) for lpn in set(lpns)]
            return (outcomes, sorted(reads), f.free_blocks,
                    f.mapped_pages)

        golden_roots = {"ftl": ftl}
        forked_roots = fork(golden_roots)
        assert measure(golden_roots) == measure(forked_roots)
