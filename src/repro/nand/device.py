"""NAND die model: blocks, pages, Read/Program/Erase semantics.

NAND's physical rules shape everything above it and are enforced here:

* a page must be erased before it can be programmed;
* pages within a block must be programmed in order;
* erase works on whole blocks and wears them out (P/E cycles);
* blocks can be bad — from the factory or by wear-out.

Data is stored sparsely per programmed page.  Addresses within a die are
``(plane, block, page)``; flattening across dies/channels is the
controller's and FTL's business.

Each page also carries an **out-of-band spare area** (OOB): real NAND
pages are ``page_bytes + spare_bytes`` wide, and controllers stash
logical metadata in the spare so flash is self-describing after a power
cut.  The die stores whatever opaque object the caller programs
alongside the payload and hands it back on :meth:`read_oob`; the FTL
stamps ``(lpn, seq, crc)`` there (see :class:`repro.nand.ftl.OOB`).

A power cut mid-program tears the page: :meth:`program_torn` models the
half-written cells (leading bytes programmed, the rest still erased
0xFF) while keeping the *intended* OOB stamp, so mount-time recovery can
detect the tear by CRC mismatch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import MediaError
from repro.nand.spec import ZNANDSpec
from repro.sim.snapshot import SnapshotMixin


class PageState(enum.Enum):
    """A page is erased, holds data, or holds stale (invalidated) data."""

    ERASED = "erased"
    PROGRAMMED = "programmed"


@dataclass(slots=True)
class BlockInfo:
    """Per-block wear and health bookkeeping."""

    erase_count: int = 0
    bad: bool = False
    next_page: int = 0    # program-in-order cursor
    read_count: int = 0   # reads since last erase (read disturb)
    aged_years: float = 0.0    # retention age of the resident data

    def __reduce__(self):
        # One entry per touched block, snapshot-hot (see OOB.__reduce__).
        return (BlockInfo, (self.erase_count, self.bad, self.next_page,
                            self.read_count, self.aged_years))


class NANDDie(SnapshotMixin):
    """One die: ``planes_per_die`` planes of ``blocks_per_plane`` blocks."""

    #: Page payloads every snapshot fork aliases (``repro.sim.snapshot``).
    SNAPSHOT_PAYLOADS = ("_data", "_erased_page")

    def __init__(self, spec: ZNANDSpec, die_index: int = 0,
                 rng_seed: int | None = None) -> None:
        spec.validate()
        self.spec = spec
        self.die_index = die_index
        # Geometry bounds and the erased-page pattern, denormalized from
        # the spec: the bounds checks run on every media operation and
        # the spec derives these through arithmetic properties.  The
        # erased singleton also means every erased read aliases one
        # immutable object instead of allocating a fresh page.
        self._planes = spec.planes_per_die
        self._blocks_per_plane = spec.blocks_per_plane
        self._pages_per_block = spec.pages_per_block
        self._erased_page = b"\xff" * spec.page_bytes
        self.blocks: dict[tuple[int, int], BlockInfo] = {}
        self._data: dict[tuple[int, int, int], bytes] = {}
        self._oob: dict[tuple[int, int, int], object] = {}
        self.reads = 0
        self.programs = 0
        self.erases = 0
        self.torn_programs = 0
        #: Armed by fault injectors: the next N program/erase operations
        #: fail with :class:`MediaError` before mutating any state, the
        #: way a worn cell fails status-check on real silicon.
        self.fail_next_programs = 0
        self.fail_next_erases = 0
        self.injected_program_failures = 0
        self.injected_erase_failures = 0
        if rng_seed is not None:
            self._seed_factory_bad_blocks(rng_seed)

    # -- fault injection ----------------------------------------------------

    def inject_program_failures(self, count: int = 1) -> None:
        """Arm the next ``count`` page programs to fail."""
        self.fail_next_programs += count

    def inject_erase_failures(self, count: int = 1) -> None:
        """Arm the next ``count`` block erases to fail."""
        self.fail_next_erases += count

    def _seed_factory_bad_blocks(self, seed: int) -> None:
        """Mark factory bad blocks pseudo-randomly (ppm from the spec)."""
        import random
        rng = random.Random(seed ^ (self.die_index * 0x9E3779B9))
        for plane in range(self.spec.planes_per_die):
            for block in range(self.spec.blocks_per_plane):
                if rng.random() < self.spec.initial_bad_block_ppm / 1e6:
                    self.block_info(plane, block).bad = True

    def block_info(self, plane: int, block: int) -> BlockInfo:
        # Only in-range blocks are ever entered, so a hit needs no
        # bounds check: the check runs once, when the entry is made.
        info = self.blocks.get((plane, block))
        if info is None:
            self._check_block(plane, block)
            info = self.blocks[(plane, block)] = BlockInfo()
        return info

    # -- operations ---------------------------------------------------------

    def read_page(self, plane: int, block: int, page: int) -> bytes:
        """Raw page read; erased pages read as all-0xFF (NAND idiom)."""
        if not 0 <= page < self._pages_per_block:
            self._check_page(plane, block, page)    # raises, block first
        info = self.block_info(plane, block)
        if info.bad:
            raise MediaError(
                f"die {self.die_index}: read from bad block "
                f"({plane},{block})")
        self.reads += 1
        info.read_count += 1
        data = self._data.get((plane, block, page))
        if data is None:
            return self._erased_page
        return data

    def read_oob(self, plane: int, block: int, page: int) -> object | None:
        """Read a page's spare area; ``None`` if never stamped."""
        self._check_page(plane, block, page)
        return self._oob.get((plane, block, page))

    def program_page(self, plane: int, block: int, page: int,
                     data: bytes, oob: object | None = None) -> None:
        """Program a page; must target the block's next erased page."""
        if not 0 <= page < self._pages_per_block:
            self._check_page(plane, block, page)    # raises, block first
        if len(data) != self.spec.page_bytes:
            self._check_block(plane, block)         # a range error wins
            raise MediaError(
                f"program data must be exactly {self.spec.page_bytes} B, "
                f"got {len(data)}")
        info = self.block_info(plane, block)
        if info.bad:
            raise MediaError(
                f"die {self.die_index}: program to bad block "
                f"({plane},{block})")
        if page != info.next_page:
            raise MediaError(
                f"die {self.die_index}: out-of-order program "
                f"(page {page}, expected {info.next_page}) in block "
                f"({plane},{block})")
        if info.erase_count == 0 and info.next_page == 0 and (
                (plane, block, page) in self._data):
            raise MediaError("program to non-erased page")
        if self.fail_next_programs > 0:
            self.fail_next_programs -= 1
            self.injected_program_failures += 1
            raise MediaError(
                f"die {self.die_index}: injected program failure in block "
                f"({plane},{block})")
        info.next_page += 1
        self._data[(plane, block, page)] = bytes(data)
        if oob is not None:
            self._oob[(plane, block, page)] = oob
        self.programs += 1

    def program_torn(self, plane: int, block: int, page: int,
                     data: bytes, oob: object | None = None) -> None:
        """Program a page torn by a power cut mid-operation.

        The leading half of the payload reaches the cells; the trailing
        half stays erased (0xFF).  The OOB stamp is the one the full
        program *intended* — recovery must notice the payload no longer
        matches the stamp's CRC and quarantine the page.
        """
        half = len(data) // 2
        torn = bytes(data[:half]) + b"\xff" * (len(data) - half)
        self.program_page(plane, block, page, torn, oob=oob)
        self.torn_programs += 1

    def erase_block(self, plane: int, block: int) -> None:
        """Erase a whole block, aging it; wears out at endurance limit."""
        info = self.block_info(plane, block)
        if info.bad:
            raise MediaError(
                f"die {self.die_index}: erase of bad block "
                f"({plane},{block})")
        if self.fail_next_erases > 0:
            self.fail_next_erases -= 1
            self.injected_erase_failures += 1
            raise MediaError(
                f"die {self.die_index}: injected erase failure in block "
                f"({plane},{block})")
        for page in range(self.spec.pages_per_block):
            self._data.pop((plane, block, page), None)
            self._oob.pop((plane, block, page), None)
        info.erase_count += 1
        info.next_page = 0
        info.read_count = 0    # erase resets read disturb...
        info.aged_years = 0.0  # ...and the retention clock
        self.erases += 1
        if info.erase_count >= self.spec.endurance_pe_cycles:
            info.bad = True

    def mark_bad(self, plane: int, block: int) -> None:
        """Retire a block (grown bad block)."""
        self.block_info(plane, block).bad = True

    # -- queries -----------------------------------------------------------------

    def page_state(self, plane: int, block: int, page: int) -> PageState:
        self._check_page(plane, block, page)
        if (plane, block, page) in self._data:
            return PageState.PROGRAMMED
        return PageState.ERASED

    def is_bad(self, plane: int, block: int) -> bool:
        return self.block_info(plane, block).bad

    def good_blocks(self) -> list[tuple[int, int]]:
        """All (plane, block) pairs not marked bad."""
        out = []
        for plane in range(self.spec.planes_per_die):
            for block in range(self.spec.blocks_per_plane):
                if not self.block_info(plane, block).bad:
                    out.append((plane, block))
        return out

    # -- bounds -------------------------------------------------------------------

    def _check_block(self, plane: int, block: int) -> None:
        if not (0 <= plane < self._planes
                and 0 <= block < self._blocks_per_plane):
            raise MediaError(
                f"die {self.die_index}: block address out of range "
                f"({plane},{block})")

    def _check_page(self, plane: int, block: int, page: int) -> None:
        self._check_block(plane, block)
        if not 0 <= page < self._pages_per_block:
            raise MediaError(
                f"die {self.die_index}: page {page} out of range")
