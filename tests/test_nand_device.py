"""Tests for the NAND die model: program-in-order, erase, wear, bad blocks."""

import dataclasses

import pytest

from repro.errors import MediaError
from repro.nand.device import NANDDie, PageState
from repro.nand.spec import ZNAND_TINY, ZNAND_64GB

SPEC = ZNAND_TINY
PAGE = b"\x5a" * SPEC.page_bytes


@pytest.fixture
def die():
    return NANDDie(SPEC)


class TestGeometry:
    def test_tiny_geometry_consistent(self):
        assert SPEC.blocks_per_plane > 0
        assert SPEC.total_pages * SPEC.page_bytes == SPEC.capacity_bytes // (
            1) or SPEC.total_pages > 0

    def test_paper_part_capacity(self):
        assert ZNAND_64GB.capacity_bytes == 64 << 30
        assert ZNAND_64GB.page_bytes == 4096

    def test_poc_phy_is_tenfold_slower(self):
        """§VII-C: 50 MHz PHY vs the media's ~500 MHz capability."""
        asic = ZNAND_64GB.with_phy_mhz(500)
        assert ZNAND_64GB.transfer_ps_per_page == (
            10 * asic.transfer_ps_per_page)


class TestProgramRead:
    def test_program_then_read(self, die):
        die.program_page(0, 0, 0, PAGE)
        assert die.read_page(0, 0, 0) == PAGE

    def test_erased_page_reads_ff(self, die):
        assert die.read_page(0, 0, 0) == b"\xff" * SPEC.page_bytes

    def test_program_must_be_in_order(self, die):
        die.program_page(0, 0, 0, PAGE)
        with pytest.raises(MediaError, match="out-of-order"):
            die.program_page(0, 0, 2, PAGE)
        die.program_page(0, 0, 1, PAGE)

    def test_program_wrong_size_rejected(self, die):
        with pytest.raises(MediaError):
            die.program_page(0, 0, 0, b"tiny")

    def test_page_state(self, die):
        assert die.page_state(0, 0, 0) is PageState.ERASED
        die.program_page(0, 0, 0, PAGE)
        assert die.page_state(0, 0, 0) is PageState.PROGRAMMED

    def test_out_of_range_rejected(self, die):
        with pytest.raises(MediaError):
            die.read_page(0, SPEC.blocks_per_plane, 0)
        with pytest.raises(MediaError):
            die.read_page(SPEC.planes_per_die, 0, 0)
        with pytest.raises(MediaError):
            die.read_page(0, 0, SPEC.pages_per_block)


class TestErase:
    def test_erase_clears_block_and_resets_cursor(self, die):
        die.program_page(0, 0, 0, PAGE)
        die.erase_block(0, 0)
        assert die.page_state(0, 0, 0) is PageState.ERASED
        die.program_page(0, 0, 0, PAGE)  # cursor back at 0

    def test_erase_counts_wear(self, die):
        die.erase_block(0, 0)
        die.erase_block(0, 0)
        assert die.block_info(0, 0).erase_count == 2

    def test_wearout_marks_bad(self):
        spec = dataclasses.replace(SPEC, endurance_pe_cycles=3)
        die = NANDDie(spec)
        for _ in range(3):
            die.erase_block(0, 0)
        assert die.is_bad(0, 0)
        with pytest.raises(MediaError):
            die.erase_block(0, 0)


class TestBadBlocks:
    def test_mark_bad_blocks_all_ops(self, die):
        die.mark_bad(0, 1)
        with pytest.raises(MediaError):
            die.read_page(0, 1, 0)
        with pytest.raises(MediaError):
            die.program_page(0, 1, 0, PAGE)
        with pytest.raises(MediaError):
            die.erase_block(0, 1)

    def test_factory_bad_blocks_seeded(self):
        spec = dataclasses.replace(SPEC, initial_bad_block_ppm=200_000)
        die = NANDDie(spec, rng_seed=42)
        total = SPEC.planes_per_die * SPEC.blocks_per_plane
        bad = total - len(die.good_blocks())
        assert bad > 0

    def test_no_seed_means_no_factory_bad_blocks(self, die):
        total = SPEC.planes_per_die * SPEC.blocks_per_plane
        assert len(die.good_blocks()) == total


class TestCounters:
    def test_op_counters(self, die):
        die.program_page(0, 0, 0, PAGE)
        die.read_page(0, 0, 0)
        die.erase_block(0, 0)
        assert (die.programs, die.reads, die.erases) == (1, 1, 1)


class TestAddressErrors:
    """Every media operation names the first bad coordinate exactly.

    The block is checked before the page, and both before the block's
    health: an out-of-range page on a bad block is a range error.
    """

    PLANES = SPEC.planes_per_die
    BLOCKS = SPEC.blocks_per_plane
    PAGES = SPEC.pages_per_block

    @staticmethod
    def block_error(plane, block):
        return f"die 0: block address out of range ({plane},{block})"

    @staticmethod
    def page_error(page):
        return f"die 0: page {page} out of range"

    def page_cases(self):
        """``(plane, block, page, message)`` for the page-addressed ops."""
        return [
            (self.PLANES, 0, 0, self.block_error(self.PLANES, 0)),
            (-1, 0, 0, self.block_error(-1, 0)),
            (0, self.BLOCKS, 0, self.block_error(0, self.BLOCKS)),
            (0, -1, 0, self.block_error(0, -1)),
            (0, 0, self.PAGES, self.page_error(self.PAGES)),
            (0, 0, -1, self.page_error(-1)),
            # Both out of range: the block wins.
            (0, self.BLOCKS, self.PAGES, self.block_error(0, self.BLOCKS)),
            (self.PLANES, 0, -1, self.block_error(self.PLANES, 0)),
        ]

    @staticmethod
    def raises(call, message):
        with pytest.raises(MediaError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize("op", ["read_page", "read_oob", "page_state"])
    def test_page_queries(self, die, op):
        for plane, block, page, message in self.page_cases():
            self.raises(lambda: getattr(die, op)(plane, block, page),
                        message)

    def test_program_page(self, die):
        for plane, block, page, message in self.page_cases():
            self.raises(lambda: die.program_page(plane, block, page, PAGE),
                        message)
            # A range error outranks a wrong-size payload.
            self.raises(lambda: die.program_page(plane, block, page, b"x"),
                        message)
        self.raises(lambda: die.program_page(0, 0, 0, b"tiny"),
                    f"program data must be exactly {SPEC.page_bytes} B, "
                    "got 4")

    def test_erase_block(self, die):
        for plane, block in [(self.PLANES, 0), (-1, 0), (0, self.BLOCKS),
                             (0, -1), (self.PLANES, self.BLOCKS)]:
            self.raises(lambda: die.erase_block(plane, block),
                        self.block_error(plane, block))

    def test_block_queries(self, die):
        for call in (die.block_info, die.is_bad, die.mark_bad):
            self.raises(lambda: call(0, self.BLOCKS),
                        self.block_error(0, self.BLOCKS))

    def test_bad_block_reports_the_range_first(self, die):
        die.mark_bad(0, 1)
        self.raises(lambda: die.read_page(0, 1, self.PAGES),
                    self.page_error(self.PAGES))
        self.raises(lambda: die.program_page(0, 1, self.PAGES, PAGE),
                    self.page_error(self.PAGES))
        self.raises(lambda: die.read_page(0, 1, 0),
                    "die 0: read from bad block (0,1)")
        self.raises(lambda: die.program_page(0, 1, 0, PAGE),
                    "die 0: program to bad block (0,1)")
        self.raises(lambda: die.erase_block(0, 1),
                    "die 0: erase of bad block (0,1)")

    def test_errors_leave_no_block_entry(self, die):
        """A refused address creates no bookkeeping for its block."""
        die.read_page(0, 0, 0)
        before = dict(die.blocks)
        for plane, block, page, _ in self.page_cases():
            for call in (die.read_page, die.read_oob, die.page_state):
                with pytest.raises(MediaError):
                    call(plane, block, page)
            with pytest.raises(MediaError):
                die.program_page(plane, block, page, PAGE)
        with pytest.raises(MediaError):
            die.program_page(0, 2, 0, b"tiny")
        assert die.blocks == before
