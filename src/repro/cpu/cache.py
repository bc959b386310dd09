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

A cached line is a bare 64-byte ``bytearray`` in one LRU ``OrderedDict``
keyed by line address, and the dirty lines are one ``set`` of line
addresses.  A load or store walks its lines once, in runs.  A run of
cached lines costs a dict lookup, an LRU bump and a copy per line, and
its hits are counted from its length.  A run of consecutive missing
lines is read with one backend read and inserted in address order, each
line counting one miss and evicting exactly as a per-line fill would.
That matters after a cachefill: ``invalidate_range`` leaves the page's
64 lines missing, and the next 4 KB load fills them with a single
backend read instead of 64.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Protocol

from repro.cpu.cacheline import line_addr, lines_covering
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
        self._lines: OrderedDict[int, bytearray] = OrderedDict()
        self._dirty: set[int] = set()
        self.stats = CacheStats()

    # -- loads/stores ------------------------------------------------------------

    def load(self, addr: int, nbytes: int) -> bytes:
        """Read ``nbytes``, filling each run of missing lines with one
        backend read."""
        lines = self._lines
        get = lines.get
        bump = lines.move_to_end
        stats = self.stats
        first = la = addr - addr % CACHELINE
        end = addr + nbytes - 1
        stop = end - end % CACHELINE + CACHELINE
        parts: list[bytearray] = []
        append = parts.append
        while la < stop:
            run = la
            for la in range(run, stop, CACHELINE):
                line = get(la)
                if line is None:
                    break
                bump(la)
                append(line)
            else:
                la = stop
            stats.hits += (la - run) // CACHELINE
            if la < stop:
                image = self._read_run(la, stop)
                self._insert_run(la, image)
                append(image)
                la += len(image)
        start = addr - first
        return b"".join(parts)[start:start + nbytes]

    def store(self, addr: int, data: bytes) -> None:
        """Write ``data``, allocating lines on miss (write-allocate).

        Each line is written and dirty before the next one of the access
        is inserted, so a run longer than the cache evicts written
        lines, and writes them back, never lines still waiting for
        their bytes.
        """
        lines = self._lines
        get = lines.get
        bump = lines.move_to_end
        dirty = self._dirty
        stats = self.stats
        size = len(data)
        la = addr - addr % CACHELINE
        end = addr + size - 1
        stop = end - end % CACHELINE + CACHELINE
        whole = la == addr and not size % CACHELINE   # no partial line
        while la < stop:
            run = la
            for la in range(run, stop, CACHELINE):
                line = get(la)
                if line is None:
                    break
                bump(la)
                offset = la - addr    # where the line's bytes are in data
                if whole:
                    line[:] = data[offset:offset + CACHELINE]
                else:
                    lo = max(-offset, 0)
                    hi = min(size - offset, CACHELINE)
                    line[lo:hi] = data[offset + lo:offset + hi]
            else:
                la = stop
            stats.hits += (la - run) // CACHELINE
            dirty.update(range(run, la, CACHELINE))
            if la < stop:
                image = self._read_run(la, stop)
                offset = la - addr
                lo = max(-offset, 0)
                hi = min(size - offset, len(image))
                image[lo:hi] = data[offset + lo:offset + hi]
                dirty.update(range(la, la + len(image), CACHELINE))
                self._insert_run(la, image)
                la += len(image)

    # -- explicit coherence (the §V-B toolbox) --------------------------------------

    def clflush(self, addr: int) -> None:
        """Flush-and-invalidate the line containing ``addr``."""
        self.stats.clflushes += 1
        la = line_addr(addr)
        line = self._lines.pop(la, None)
        if line is not None and la in self._dirty:
            self._write_back(la, line)

    def clwb(self, addr: int) -> None:
        """Write back the line but keep it cached (clean)."""
        la = line_addr(addr)
        if la in self._dirty:
            self._write_back(la, self._lines[la])

    def invalidate(self, addr: int) -> None:
        """Drop the line *without* writing it back.

        This is what the driver does after a cachefill: any cached copy
        predates the device's DMA and must not survive — flushing it
        would overwrite the fresh page with stale bytes.
        """
        self.stats.invalidates += 1
        la = line_addr(addr)
        self._lines.pop(la, None)
        self._dirty.discard(la)

    def flush_range(self, addr: int, nbytes: int) -> None:
        """clflush every line of a byte range (pre-writeback sweep)."""
        covered = lines_covering(addr, nbytes)
        self.stats.clflushes += len(covered)
        pop = self._lines.pop
        for la in sorted(self._lines.keys() & covered):
            line = pop(la)
            if la in self._dirty:
                self._write_back(la, line)

    def invalidate_range(self, addr: int, nbytes: int) -> None:
        """Invalidate every line of a byte range (post-cachefill sweep)."""
        covered = lines_covering(addr, nbytes)
        for la in self._lines.keys() & covered:
            del self._lines[la]
        self._dirty.difference_update(covered)
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
        return line_addr(addr) in self._dirty

    def lines(self) -> Iterator[tuple[int, bytes, bool]]:
        """Every cached line as ``(addr, bytes, dirty)``, least recently
        used first."""
        dirty = self._dirty
        for la, line in self._lines.items():
            yield la, bytes(line), la in dirty

    def __len__(self) -> int:
        return len(self._lines)

    # -- internals ------------------------------------------------------------------------

    def _read_run(self, first: int, stop: int) -> bytearray:
        """The backend bytes of the run of missing lines at ``first``.

        The run ends at the first line already cached or at ``stop``.
        Reading only missing lines keeps a cached (maybe dirty) line
        from being replaced by stale backend bytes.  Each line of the
        run counts one miss.  An out-of-range run raises in the backend
        read and a short read raises here, both before any line of the
        run is inserted; cache accesses are slot addresses inside the
        reserved region, and no backend returns fewer bytes than asked,
        so no caller reaches either.
        """
        after = range(first + CACHELINE, stop, CACHELINE)
        end = next(filter(self._lines.__contains__, after), stop)
        nbytes = end - first
        data = self.backend.mem_read(first, nbytes)
        if len(data) < nbytes:
            raise ValueError("cacheline payload must be 64 B")
        self.stats.misses += nbytes // CACHELINE
        return bytearray(data[:nbytes])

    def _insert_run(self, first: int, image: bytearray) -> None:
        """Insert the run's lines in address order, evicting past capacity.

        The lines that fit in the free capacity go in without a test;
        each one after them evicts the least recently used line, which
        may be a line this run inserted.
        """
        lines = self._lines
        nbytes = len(image)
        free = (self.capacity_lines - len(lines)) * CACHELINE
        for offset in range(0, min(free, nbytes), CACHELINE):
            lines[first + offset] = image[offset:offset + CACHELINE]
        for offset in range(free, nbytes, CACHELINE):
            lines[first + offset] = image[offset:offset + CACHELINE]
            self._evict_lru()

    def _evict_lru(self) -> None:
        la, line = self._lines.popitem(last=False)
        self.stats.evictions += 1
        if la in self._dirty:
            self._write_back(la, line)

    def _write_back(self, la: int, line: bytearray) -> None:
        self._dirty.remove(la)
        self.backend.mem_write(la, bytes(line))
        self.stats.writebacks += 1
