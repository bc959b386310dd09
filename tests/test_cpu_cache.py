"""Tests for the CPU cache: LRU behaviour and explicit coherence ops."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.cache import CPUCache
from repro.cpu.cacheline import CacheLine, line_addr, lines_covering
from repro.units import CACHELINE


class RAM:
    """A trivial byte-addressable backend."""

    def __init__(self, size=1 << 20):
        self.data = bytearray(size)
        self.reads = 0
        self.writes = 0

    def mem_read(self, addr, nbytes):
        self.reads += 1
        return bytes(self.data[addr:addr + nbytes])

    def mem_write(self, addr, data):
        self.writes += 1
        self.data[addr:addr + len(data)] = data


class TestCacheline:
    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            CacheLine(addr=5)

    def test_line_addr(self):
        assert line_addr(0) == 0
        assert line_addr(63) == 0
        assert line_addr(64) == 64
        assert line_addr(130) == 128

    def test_lines_covering(self):
        assert lines_covering(0, 64) == [0]
        assert lines_covering(60, 8) == [0, 64]
        assert lines_covering(0, 4096) == list(range(0, 4096, 64))


class TestLoadsStores:
    def test_store_then_load(self):
        cache = CPUCache(RAM())
        cache.store(100, b"hello")
        assert cache.load(100, 5) == b"hello"

    def test_load_pulls_from_backend(self):
        ram = RAM()
        ram.data[200:205] = b"world"
        cache = CPUCache(ram)
        assert cache.load(200, 5) == b"world"

    def test_dirty_data_stays_in_cache(self):
        """Write-back: stores do not reach the backend until evict/flush."""
        ram = RAM()
        cache = CPUCache(ram)
        cache.store(0, b"x" * 64)
        assert ram.data[0:64] == bytes(64)
        assert cache.is_dirty(0)

    def test_cross_line_access(self):
        cache = CPUCache(RAM())
        payload = bytes(range(200))
        cache.store(30, payload)
        assert cache.load(30, 200) == payload

    def test_lru_eviction_writes_back_dirty(self):
        ram = RAM()
        cache = CPUCache(ram, capacity_lines=2)
        cache.store(0, b"a" * 64)
        cache.store(64, b"b" * 64)
        cache.store(128, b"c" * 64)   # evicts line 0
        assert ram.data[0:64] == b"a" * 64
        assert not cache.contains(0)
        assert cache.stats.evictions == 1

    def test_hit_rate(self):
        cache = CPUCache(RAM())
        cache.load(0, 64)
        cache.load(0, 64)
        cache.load(0, 64)
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1


class TestCoherenceOps:
    def test_clflush_writes_back_and_invalidates(self):
        ram = RAM()
        cache = CPUCache(ram)
        cache.store(0, b"z" * 64)
        cache.clflush(0)
        assert ram.data[0:64] == b"z" * 64
        assert not cache.contains(0)

    def test_clwb_keeps_line_clean(self):
        ram = RAM()
        cache = CPUCache(ram)
        cache.store(0, b"z" * 64)
        cache.clwb(0)
        assert ram.data[0:64] == b"z" * 64
        assert cache.contains(0)
        assert not cache.is_dirty(0)

    def test_invalidate_drops_without_writeback(self):
        """Post-cachefill invalidate: stale dirty data must vanish."""
        ram = RAM()
        cache = CPUCache(ram)
        cache.store(0, b"stale" + bytes(59))
        cache.invalidate(0)
        assert ram.data[0:64] == bytes(64)   # never written back
        assert not cache.contains(0)

    def test_stale_cache_hides_device_dma_until_invalidate(self):
        """The §V-B hazard, reproduced then fixed."""
        ram = RAM()
        cache = CPUCache(ram)
        cache.load(0, 64)                     # CPU caches old contents
        ram.data[0:64] = b"d" * 64            # device DMA (invisible)
        assert cache.load(0, 64) == bytes(64)  # hazard: stale view
        cache.invalidate(0)
        assert cache.load(0, 64) == b"d" * 64  # fixed

    def test_unflushed_victim_gives_device_stale_bytes(self):
        """Dual hazard: device reads DRAM while new data is CPU-cached."""
        ram = RAM()
        cache = CPUCache(ram)
        cache.store(0, b"new" + bytes(61))
        device_view = ram.data[0:64]           # device DMA out of DRAM
        assert device_view == bytes(64)         # stale!
        cache.flush_range(0, 64)
        cache.sfence()
        assert ram.data[0:64] == b"new" + bytes(61)

    def test_range_ops_cover_page(self):
        ram = RAM()
        cache = CPUCache(ram)
        cache.store(0, bytes(range(256)) * 16)   # 4 KB
        cache.flush_range(0, 4096)
        assert ram.data[0:4096] == bytes(range(256)) * 16
        assert cache.stats.clflushes == 64

    def test_drain_all(self):
        ram = RAM()
        cache = CPUCache(ram)
        for i in range(10):
            cache.store(i * CACHELINE, bytes([i]) * CACHELINE)
        cache.drain_all()
        assert len(cache) == 0
        for i in range(10):
            assert ram.data[i * CACHELINE] == i


class TestRunReads:
    """A miss reads its run of consecutive missing lines at once."""

    def _invalidated_page(self):
        ram = RAM()
        cache = CPUCache(ram)
        cache.load(0, 4096)                    # CPU caches the old page
        ram.data[0:4096] = bytes(range(256)) * 16   # cachefill DMA
        cache.invalidate_range(0, 4096)
        return ram, cache

    def test_page_load_after_invalidate_is_one_read(self):
        ram, cache = self._invalidated_page()
        reads, misses = ram.reads, cache.stats.misses
        assert cache.load(0, 4096) == bytes(range(256)) * 16
        assert ram.reads - reads == 1
        assert cache.stats.misses - misses == 64

    def test_cached_line_splits_the_run(self):
        ram, cache = self._invalidated_page()
        cache.load(2048, CACHELINE)            # one line mid-page
        reads, misses = ram.reads, cache.stats.misses
        hits = cache.stats.hits
        assert cache.load(0, 4096) == bytes(range(256)) * 16
        assert ram.reads - reads == 2
        assert cache.stats.misses - misses == 63
        assert cache.stats.hits - hits == 1


class TestPropertyBased:
    @given(st.lists(st.tuples(st.integers(0, 1023), st.binary(min_size=1,
                                                              max_size=64)),
                    max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_cache_plus_backend_equals_flat_memory(self, writes):
        """Cached view must always equal a flat reference memory."""
        ram = RAM(size=4096)
        cache = CPUCache(ram, capacity_lines=4)   # tiny: force evictions
        reference = bytearray(4096)
        for addr, data in writes:
            data = data[:4096 - addr]
            if not data:
                continue
            cache.store(addr, data)
            reference[addr:addr + len(data)] = data
        assert cache.load(0, 4096) == bytes(reference)
