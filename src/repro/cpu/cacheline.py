"""Cacheline address arithmetic: 64 B lines tagged by their aligned
address."""

from __future__ import annotations

from repro.units import CACHELINE


def line_addr(addr: int) -> int:
    """The aligned address of the line containing ``addr``."""
    return addr - (addr % CACHELINE)


def lines_covering(addr: int, nbytes: int) -> list[int]:
    """Aligned addresses of every line an access touches."""
    first = line_addr(addr)
    last = line_addr(addr + nbytes - 1)
    return list(range(first, last + CACHELINE, CACHELINE))
