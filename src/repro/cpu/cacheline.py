"""A single cacheline: 64 bytes with dirty/valid state."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import CACHELINE


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


def line_addr(addr: int) -> int:
    """The aligned address of the line containing ``addr``."""
    return addr - (addr % CACHELINE)


def lines_covering(addr: int, nbytes: int) -> list[int]:
    """Aligned addresses of every line an access touches."""
    first = line_addr(addr)
    last = line_addr(addr + nbytes - 1)
    return list(range(first, last + CACHELINE, CACHELINE))
