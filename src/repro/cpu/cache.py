"""CPU cache with the explicit-coherence operations the driver needs.

§V-B: device-side DMA during the tRFC window is invisible to the CPU's
coherence fabric, so

* before a **writeback** the driver must ``clflush`` + ``sfence`` the
  victim page's lines (else the device snapshots stale DRAM);
* after a **cachefill** the driver must ``invalidate`` the filled page's
  lines (else the CPU keeps serving pre-fill data, and a later eviction
  of those stale dirty lines would overwrite the new page).

This model is a write-back, write-allocate LRU cache over a pluggable
memory backend.  It is *data-functional*: the coherence experiments
assert byte-exact outcomes; timing belongs to ``repro.perf``.

A load or store walks its line addresses once.  A hit is a dict lookup
and an LRU bump; a miss reads the whole run of consecutive missing lines
with one backend read, then inserts them one at a time in address order,
each insertion counting one miss and evicting exactly as a per-line fill
would.  That matters after a cachefill: ``invalidate_range`` leaves the
page's 64 lines missing, and the next 4 KB load fills them with a single
backend read instead of 64.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol

from repro.cpu.cacheline import CacheLine, line_addr, lines_covering
from repro.units import CACHELINE


class MemoryBackend(Protocol):
    """What the cache sits in front of (ultimately the DRAM device).

    ``mem_read`` may be asked for several consecutive lines at once.
    """

    def mem_read(self, addr: int, nbytes: int) -> bytes: ...

    def mem_write(self, addr: int, data: bytes) -> None: ...


@dataclass
class CacheStats:
    """Hit/miss and coherence-operation counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    clflushes: int = 0
    invalidates: int = 0
    sfences: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


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
        """Read ``nbytes``, filling each run of missing lines with one
        backend read."""
        lines = self._lines
        stats = self.stats
        first = la = line_addr(addr)
        last = line_addr(addr + nbytes - 1)
        parts: list[bytearray] = []
        while la <= last:
            line = lines.get(la)
            if line is None:
                for line in self._fill_run(la, last):
                    parts.append(line.data)
                la = line.addr + CACHELINE
                continue
            stats.hits += 1
            lines.move_to_end(la)
            parts.append(line.data)
            la += CACHELINE
        start = addr - first
        return b"".join(parts)[start:start + nbytes]

    def store(self, addr: int, data: bytes) -> None:
        """Write ``data``, allocating lines on miss (write-allocate).

        Each line of a missed run is written before the next one is
        inserted, so a run longer than the cache evicts written lines,
        never lines still waiting for their bytes.
        """
        lines = self._lines
        stats = self.stats
        la = line_addr(addr)
        last = line_addr(addr + len(data) - 1)
        head = addr - la          # where the first line's bytes start
        pos = 0                   # the next byte of ``data`` to write
        while la <= last:
            line = lines.get(la)
            run: Iterable[CacheLine]
            if line is None:
                run = self._fill_run(la, last)
            else:
                stats.hits += 1
                lines.move_to_end(la)
                run = (line,)
            for line in run:
                piece = data[pos:pos + CACHELINE - head]
                n = len(piece)
                line.data[head:head + n] = piece
                line.dirty = True
                pos += n
                head = 0
            la = line.addr + CACHELINE

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
        covered = lines_covering(addr, nbytes)
        pop = self._lines.pop
        for la in covered:
            pop(la, None)
        self.stats.invalidates += len(covered)

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

    def _fill_run(self, first: int, last: int) -> Iterator[CacheLine]:
        """Fill the run of missing lines that starts at ``first``.

        The run ends at the first line already cached or after ``last``.
        One backend read covers it; each line then counts a miss, is
        inserted (evicting past capacity) and is yielded before the next
        one goes in.  Reading only missing lines keeps a cached (maybe
        dirty) line from being replaced by stale backend bytes.  An
        out-of-range run raises in that one read, before any of its
        lines is filled; cache accesses are slot addresses inside the
        reserved region, so no caller reaches it.
        """
        lines = self._lines
        stop = first + CACHELINE
        while stop <= last and stop not in lines:
            stop += CACHELINE
        data = bytearray(self.backend.mem_read(first, stop - first))
        stats = self.stats
        capacity = self.capacity_lines
        for la in range(first, stop, CACHELINE):
            stats.misses += 1
            offset = la - first
            line = CacheLine(addr=la, data=data[offset:offset + CACHELINE])
            lines[la] = line
            if len(lines) > capacity:
                self._evict_lru()
            yield line

    def _evict_lru(self) -> None:
        la, line = self._lines.popitem(last=False)
        self.stats.evictions += 1
        if line.dirty:
            self.backend.mem_write(la, bytes(line.data))
            self.stats.writebacks += 1
