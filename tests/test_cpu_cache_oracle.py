"""The CPU cache against the per-line cache it replaced.

``CPUCache`` used to fetch every line of a load or store through
``_get_line``: one backend read per missed line, and a ``CacheLine``
method call per line for the bytes.  The live cache walks an access
once and fills each run of consecutive missing lines with one backend
read.  ``CPUCache`` and ``CacheLine`` below are the replaced code, kept
verbatim as the reference oracle.

A hypothesis property drives both caches through one drawn sequence of
loads, stores and coherence operations over a recording backend seeded
with random bytes, at capacities small enough that one access evicts
lines it filled itself.  After every operation it requires equal return
values, ``CacheStats``, cached lines (address, bytes, dirty bit, in LRU
order), backend bytes, the ``mem_write`` log and the line addresses the
``mem_read`` calls covered, in order.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import cache as live
from repro.cpu.cache import CacheStats, MemoryBackend
from repro.units import CACHELINE

# -- the replaced cache, verbatim: the oracle -----------------------------------


@dataclass
class CacheLine:
    """One 64 B line, tagged by its aligned physical address."""

    addr: int
    data: bytearray = field(default_factory=lambda: bytearray(CACHELINE))
    dirty: bool = False

    def __post_init__(self) -> None:
        if self.addr % CACHELINE:
            raise ValueError(f"cacheline address {self.addr:#x} unaligned")
        if len(self.data) != CACHELINE:
            raise ValueError("cacheline payload must be 64 B")

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read within the line."""
        return bytes(self.data[offset:offset + nbytes])

    def write(self, offset: int, payload: bytes) -> None:
        """Write within the line and mark it dirty."""
        self.data[offset:offset + len(payload)] = payload
        self.dirty = True


def line_addr(addr: int) -> int:
    """The aligned address of the line containing ``addr``."""
    return addr - (addr % CACHELINE)


def lines_covering(addr: int, nbytes: int) -> list[int]:
    """Aligned addresses of every line an access touches."""
    first = line_addr(addr)
    last = line_addr(addr + nbytes - 1)
    return list(range(first, last + CACHELINE, CACHELINE))


class CPUCache:
    """Write-back, write-allocate, LRU-replacement cache."""

    def __init__(self, backend: MemoryBackend,
                 capacity_lines: int = 8192) -> None:
        if capacity_lines < 1:
            raise ValueError("cache needs at least one line")
        self.backend = backend
        self.capacity_lines = capacity_lines
        self._lines: OrderedDict[int, CacheLine] = OrderedDict()
        self.stats = CacheStats()

    # -- loads/stores ------------------------------------------------------------

    def load(self, addr: int, nbytes: int) -> bytes:
        """Read ``nbytes``, filling lines from the backend on miss."""
        out = bytearray()
        for la in lines_covering(addr, nbytes):
            line = self._get_line(la)
            start = max(addr, la) - la
            end = min(addr + nbytes, la + CACHELINE) - la
            out.extend(line.read(start, end - start))
        return bytes(out)

    def store(self, addr: int, data: bytes) -> None:
        """Write ``data``, allocating lines on miss (write-allocate)."""
        offset = 0
        for la in lines_covering(addr, len(data)):
            line = self._get_line(la)
            start = max(addr, la) - la
            end = min(addr + len(data), la + CACHELINE) - la
            line.write(start, data[offset:offset + (end - start)])
            offset += end - start

    # -- explicit coherence (the §V-B toolbox) --------------------------------------

    def clflush(self, addr: int) -> None:
        """Flush-and-invalidate the line containing ``addr``."""
        self.stats.clflushes += 1
        la = line_addr(addr)
        line = self._lines.pop(la, None)
        if line is not None and line.dirty:
            self.backend.mem_write(la, bytes(line.data))
            self.stats.writebacks += 1

    def clwb(self, addr: int) -> None:
        """Write back the line but keep it cached (clean)."""
        la = line_addr(addr)
        line = self._lines.get(la)
        if line is not None and line.dirty:
            self.backend.mem_write(la, bytes(line.data))
            line.dirty = False
            self.stats.writebacks += 1

    def invalidate(self, addr: int) -> None:
        """Drop the line *without* writing it back.

        This is what the driver does after a cachefill: any cached copy
        predates the device's DMA and must not survive — flushing it
        would overwrite the fresh page with stale bytes.
        """
        self.stats.invalidates += 1
        self._lines.pop(line_addr(addr), None)

    def flush_range(self, addr: int, nbytes: int) -> None:
        """clflush every line of a byte range (pre-writeback sweep)."""
        for la in lines_covering(addr, nbytes):
            self.clflush(la)

    def invalidate_range(self, addr: int, nbytes: int) -> None:
        """Invalidate every line of a byte range (post-cachefill sweep)."""
        for la in lines_covering(addr, nbytes):
            self.invalidate(la)

    def sfence(self) -> None:
        """Order prior flushes; counted for the overhead model."""
        self.stats.sfences += 1

    def drain_all(self) -> None:
        """Flush the whole cache (used by tests and recovery paths)."""
        for la in list(self._lines):
            self.clflush(la)

    # -- inspection ---------------------------------------------------------------------

    def contains(self, addr: int) -> bool:
        return line_addr(addr) in self._lines

    def is_dirty(self, addr: int) -> bool:
        line = self._lines.get(line_addr(addr))
        return bool(line and line.dirty)

    def __len__(self) -> int:
        return len(self._lines)

    # -- internals ------------------------------------------------------------------------

    def _get_line(self, la: int) -> CacheLine:
        line = self._lines.get(la)
        if line is not None:
            self.stats.hits += 1
            self._lines.move_to_end(la)
            return line
        self.stats.misses += 1
        data = bytearray(self.backend.mem_read(la, CACHELINE))
        line = CacheLine(addr=la, data=data)
        self._lines[la] = line
        if len(self._lines) > self.capacity_lines:
            self._evict_lru()
        return line

    def _evict_lru(self) -> None:
        la, line = self._lines.popitem(last=False)
        self.stats.evictions += 1
        if line.dirty:
            self.backend.mem_write(la, bytes(line.data))
            self.stats.writebacks += 1


# -- the property ---------------------------------------------------------------

MEMORY_BYTES = 2048
MAX_ACCESS = 600


class Recorder:
    """A flat backend that logs each write and each line a read covers."""

    def __init__(self, seed: int) -> None:
        self.data = bytearray(random.Random(seed).randbytes(MEMORY_BYTES))
        self.read_lines: list[int] = []
        self.writes: list[tuple[int, bytes]] = []

    def mem_read(self, addr: int, nbytes: int) -> bytes:
        assert addr % CACHELINE == 0 and nbytes % CACHELINE == 0
        assert nbytes > 0 and addr + nbytes <= MEMORY_BYTES
        self.read_lines.extend(range(addr, addr + nbytes, CACHELINE))
        return bytes(self.data[addr:addr + nbytes])

    def mem_write(self, addr: int, data: bytes) -> None:
        self.writes.append((addr, bytes(data)))
        self.data[addr:addr + len(data)] = data


@st.composite
def _access(draw) -> tuple[int, int]:
    """``(addr, nbytes)`` inside the backend, zero-length included."""
    nbytes = draw(st.integers(0, MAX_ACCESS))
    return draw(st.integers(0, MEMORY_BYTES - nbytes)), nbytes


ADDR = st.integers(0, MEMORY_BYTES - 1)
OPS = st.one_of(
    st.tuples(st.just("load"), _access()),
    st.tuples(st.just("store"), _access(), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("clflush"), ADDR),
    st.tuples(st.just("clwb"), ADDR),
    st.tuples(st.just("invalidate"), ADDR),
    st.tuples(st.just("flush_range"), _access()),
    st.tuples(st.just("invalidate_range"), _access()),
    st.tuples(st.just("drain_all")),
    st.tuples(st.just("sfence")),
)


def _apply(cache, op):
    kind = op[0]
    if kind == "store":
        (addr, nbytes), seed = op[1], op[2]
        return cache.store(addr, random.Random(seed).randbytes(nbytes))
    if kind in ("load", "flush_range", "invalidate_range"):
        return getattr(cache, kind)(*op[1])
    return getattr(cache, kind)(*op[1:])


def _state(cache) -> tuple:
    lines = []
    for la, line in cache._lines.items():
        assert line.addr == la and len(line.data) == CACHELINE
        lines.append((la, bytes(line.data), line.dirty))
    backend = cache.backend
    return (asdict(cache.stats), lines, bytes(backend.data),
            backend.writes, backend.read_lines)


@settings(max_examples=400, deadline=None)
@given(ops=st.lists(OPS, max_size=30), capacity=st.integers(1, 12),
       seed=st.integers(0, 2**16))
def test_cache_matches_the_per_line_oracle(ops, capacity, seed):
    cache = live.CPUCache(Recorder(seed), capacity)
    oracle = CPUCache(Recorder(seed), capacity)
    for op in ops:
        assert _apply(cache, op) == _apply(oracle, op), op
        assert _state(cache) == _state(oracle), op
