"""Flash translation layer: page-mapped L2P with GC and wear levelling.

One Cortex-A53 core of the PoC runs "the flash translation layer (FTL)
that manages the two channel Z-NAND devices" (§IV-A).  The model is a
page-mapped FTL:

* logical 4 KB pages map to physical ``(die, plane, block, page)``;
* writes append to per-die open blocks (round-robin across dies for
  channel parallelism), invalidating the old copy;
* greedy garbage collection kicks in when free blocks run low,
  relocating valid pages out of the fullest-of-stale blocks;
* allocation prefers the least-erased free block (wear levelling);
* grown bad blocks (program/erase failures) are retired and replaced;
* 120 GB of the 128 GB raw capacity is exposed (§VI) — the remainder is
  over-provisioning that keeps GC affordable.

Every public operation returns the list of physical operations it
performed so the controller can convert work into simulated time.

**Crash consistency.**  The L2P map is volatile (it lives in the FTL
core's SRAM), so every program stamps the page's spare area with an
:class:`OOB` record ``(lpn, seq, crc, kind)``: flash is self-describing
and :meth:`FlashTranslationLayer.recover_from_media` can rebuild the map
after any power cut by electing, per LPN, the stamped copy with the
highest sequence number whose payload still matches its CRC (torn pages
are quarantined).  ``trim`` is durable through the same mechanism: it
appends a *tombstone* page (``kind="trim"``) that outvotes every older
data copy, and tombstones stay GC-live so reclaiming their block cannot
resurrect stale data.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import (DegradedModeError, FTLError, MediaError,
                          PowerLossInterrupt)
from repro.health.retry import budget_for
from repro.nand.device import NANDDie
from repro.nand.spec import ZNANDSpec
from repro.sim.snapshot import SnapshotMixin


class PPA(NamedTuple):
    """Physical page address."""

    die: int
    plane: int
    block: int
    page: int


class PhysOp(NamedTuple):
    """One physical NAND operation, for timing accounting."""

    kind: str      # "read" | "program" | "erase"
    die: int


class OOB(NamedTuple):
    """Out-of-band (spare-area) stamp programmed alongside every page.

    ``seq`` is a module-wide monotonic program counter: among multiple
    stamped copies of one LPN, the highest ``seq`` whose payload matches
    ``crc`` wins at mount time.  ``kind`` distinguishes data pages from
    trim tombstones (a tombstone outvotes older data: the LPN reads as
    never-written after recovery).
    """

    lpn: int
    seq: int
    crc: int                  # zlib.crc32 of the full page payload
    kind: str = "data"        # "data" | "trim"

    def __reduce__(self):
        # Thousands of stamps live in a mid-run snapshot; rebuilding
        # through the constructor beats the generic named-tuple path
        # (``copyreg.__reduce_ex__`` plus ``__getnewargs__`` per stamp).
        return (OOB, (self.lpn, self.seq, self.crc, self.kind))


@dataclass
class FTLStats:
    """Externally visible FTL counters."""

    host_reads: int = 0
    host_programs: int = 0
    gc_reads: int = 0
    gc_programs: int = 0
    erases: int = 0
    gc_invocations: int = 0
    grown_bad_blocks: int = 0
    #: Program attempts that failed and were remapped to another block.
    program_retries: int = 0
    #: Pages proactively rewritten by the patrol scrubber.
    scrub_relocations: int = 0
    #: Live pages copied out of a grown-bad block at retirement.
    rescued_pages: int = 0
    #: Durable trim tombstones appended on behalf of the host.
    trim_tombstones: int = 0
    #: Programs torn mid-operation by a power cut.
    torn_programs: int = 0

    @property
    def write_amplification(self) -> float:
        if self.host_programs == 0:
            return 1.0
        return (self.host_programs + self.gc_programs) / self.host_programs


#: Victim-selection strategies for garbage collection (see
#: :meth:`FlashTranslationLayer.set_victim_strategy`).  ``greedy`` is
#: the byte-identical default; the other two trade extra copies for a
#: tighter erase-count spread (wear leveling proper).
VICTIM_STRATEGIES: tuple[str, ...] = ("greedy", "cost_benefit", "static")


@dataclass
class _BlockMeta:
    """FTL-side view of one physical block."""

    die: int
    plane: int
    block: int
    valid: int = 0
    lpns: dict[int, int] = field(default_factory=dict)  # page -> lpn
    #: A partially-programmed block closed by recovery: its remaining
    #: erased pages are unusable (the program cursor must stay honest),
    #: so GC may reclaim it even though it never filled.
    sealed: bool = False
    #: Sequence number of the last program into this block — the
    #: cost-benefit strategy's notion of block age (0 = never written
    #: this mount, i.e. maximally cold).
    last_seq: int = 0


@dataclass
class FTLRecoveryStats:
    """What :meth:`FlashTranslationLayer.recover_from_media` found."""

    scanned_pages: int = 0      # programmed pages walked
    mapped: int = 0             # LPNs with an elected data copy
    tombstones: int = 0         # LPNs whose winner is a trim tombstone
    stale: int = 0              # intact pages outvoted by a newer seq
    torn_quarantined: int = 0   # CRC-mismatched pages (power cut mid-program)
    unstamped: int = 0          # programmed pages with no OOB stamp
    sealed_blocks: int = 0      # partial blocks closed for GC reclaim
    reopened_blocks: int = 0    # partial blocks resumed as open blocks
    max_seq: int = 0            # highest sequence number seen on media

    def to_dict(self) -> dict[str, int]:
        return {
            "scanned_pages": self.scanned_pages,
            "mapped": self.mapped,
            "tombstones": self.tombstones,
            "stale": self.stale,
            "torn_quarantined": self.torn_quarantined,
            "unstamped": self.unstamped,
            "sealed_blocks": self.sealed_blocks,
            "reopened_blocks": self.reopened_blocks,
            "max_seq": self.max_seq,
        }


class FlashTranslationLayer(SnapshotMixin):
    """Page-mapped FTL over a set of dies."""

    #: GC starts when fewer free blocks than this remain (per pool).
    GC_LOW_WATER = 4
    #: GC relocates until this many free blocks are available again.
    GC_HIGH_WATER = 8

    def __init__(self, dies: list[NANDDie],
                 logical_capacity_bytes: int) -> None:
        if not dies:
            raise FTLError("FTL needs at least one die")
        self.dies = dies
        self.spec: ZNANDSpec = dies[0].spec
        self.logical_pages = logical_capacity_bytes // self.spec.page_bytes
        self._l2p: dict[int, PPA] = {}
        #: Durable trim markers: lpn -> PPA of its live tombstone page.
        #: Tracked so GC relocates tombstones like live pages — erasing
        #: the only tombstone while an older data copy survives would
        #: resurrect the trimmed LPN at the next mount.
        self._tombstones: dict[int, PPA] = {}
        self._blocks: dict[tuple[int, int, int], _BlockMeta] = {}
        self._free: list[tuple[int, int, int]] = []
        self._open: dict[int, _BlockMeta | None] = {}
        self._next_die = 0
        #: Module-wide monotonic program counter stamped into every OOB.
        self._seq = 1
        self._zero_page = bytes(self.spec.page_bytes)
        self.stats = FTLStats()
        #: Optional observer called after every successful program:
        #: ``on_commit(lpn, crc, kind)``.  The crash-point explorer uses
        #: it as ground truth for what is durably committed.
        self.on_commit = None
        #: Installed by fault campaigns (duck-typed
        #: :class:`repro.faults.clock.FaultClock`); the FTL is timeless,
        #: so GC cuts are count-scheduled via ``tick``.
        self.fault_clock = None
        #: Shared :class:`repro.health.monitor.HealthMonitor`, installed
        #: by the owning controller.  The FTL is timeless, so its events
        #: inherit the monitor's clock.
        self.health = None
        #: Remap attempts per logical write, from the taxonomy budget
        #: for generic media failures.
        self.remap_budget = budget_for(MediaError).attempts
        #: GC victim-selection strategy (see :data:`VICTIM_STRATEGIES`).
        self.victim_strategy = "greedy"
        #: ``static`` leveling: migrate the coldest closed block once
        #: this many erases have happened (then re-arm).
        self.static_level_period = 32
        self._static_level_due = self.static_level_period
        self._discover_blocks()
        self._check_capacity()

    def set_victim_strategy(self, name: str,
                            static_period: int | None = None) -> None:
        """Select the GC victim strategy; raises on unknown names.

        ``static_period`` (erases between cold-block migrations) only
        matters for ``static``; passing it re-arms the migration timer
        relative to the current erase count.
        """
        if name not in VICTIM_STRATEGIES:
            raise FTLError(
                f"unknown victim strategy {name!r}; "
                f"expected one of {VICTIM_STRATEGIES}")
        self.victim_strategy = name
        if static_period is not None:
            if static_period < 1:
                raise FTLError("static_period must be >= 1")
            self.static_level_period = static_period
            self._static_level_due = self.stats.erases + static_period

    # -- init ---------------------------------------------------------------------

    def _discover_blocks(self) -> None:
        for die_index, die in enumerate(self.dies):
            self._open[die_index] = None
            for plane, block in die.good_blocks():
                self._free.append((die_index, plane, block))

    def _check_capacity(self) -> None:
        physical_pages = len(self._free) * self.spec.pages_per_block
        if physical_pages < self.logical_pages + (
                self.GC_HIGH_WATER * self.spec.pages_per_block):
            raise FTLError(
                "not enough physical capacity for the logical space "
                "plus over-provisioning: "
                f"{physical_pages} pages < {self.logical_pages} logical")

    # -- mount-time recovery ------------------------------------------------------

    @classmethod
    def recover_from_media(
            cls, dies: list[NANDDie], logical_capacity_bytes: int,
    ) -> tuple["FlashTranslationLayer", FTLRecoveryStats]:
        """Rebuild an FTL from what actually reached flash.

        The cold-mount path after a power cut: walk every programmed
        page of every good block, verify its payload against the OOB
        CRC (mismatch = torn by the cut: quarantine), and elect, per
        LPN, the intact copy with the highest sequence number.  A trim
        tombstone winner leaves the LPN unmapped — durably trimmed.

        Partially-programmed blocks are resumed: the emptiest one per
        die becomes the open block again; the rest are *sealed* so GC
        can reclaim them (their program cursor is mid-block, and the
        erased tail must never be silently reused without an erase).
        """
        ftl = cls(dies, logical_capacity_bytes)
        stats = FTLRecoveryStats()
        # lpn -> (seq, kind, ppa): the election scoreboard.
        best: dict[int, tuple[int, str, PPA]] = {}
        for die_index, die in enumerate(ftl.dies):
            for plane, block in die.good_blocks():
                info = die.block_info(plane, block)
                if info.next_page == 0:
                    continue   # pristine or fully erased: stays free
                key = (die_index, plane, block)
                ftl._free.remove(key)
                ftl._blocks[key] = _BlockMeta(
                    die=die_index, plane=plane, block=block)
                for page in range(info.next_page):
                    stats.scanned_pages += 1
                    oob = die.read_oob(plane, block, page)
                    if not isinstance(oob, OOB):
                        stats.unstamped += 1
                        continue
                    stats.max_seq = max(stats.max_seq, oob.seq)
                    data = die.read_page(plane, block, page)
                    if zlib.crc32(data) != oob.crc:
                        stats.torn_quarantined += 1
                        continue
                    cur = best.get(oob.lpn)
                    if cur is None or oob.seq > cur[0]:
                        best[oob.lpn] = (
                            oob.seq, oob.kind,
                            PPA(die_index, plane, block, page))
        for lpn in sorted(best):
            seq, kind, ppa = best[lpn]
            meta = ftl._blocks[(ppa.die, ppa.plane, ppa.block)]
            meta.lpns[ppa.page] = lpn
            meta.valid += 1
            if kind == "trim":
                ftl._tombstones[lpn] = ppa
                stats.tombstones += 1
            else:
                ftl._l2p[lpn] = ppa
                stats.mapped += 1
        stats.stale = (stats.scanned_pages - stats.torn_quarantined
                       - stats.unstamped - stats.mapped - stats.tombstones)
        ftl._seq = stats.max_seq + 1
        for die_index, die in enumerate(ftl.dies):
            partials = [
                meta for key, meta in ftl._blocks.items()
                if key[0] == die_index
                and die.block_info(meta.plane, meta.block).next_page
                < ftl.spec.pages_per_block]
            if not partials:
                continue
            reopen = min(partials, key=lambda m: (
                die.block_info(m.plane, m.block).next_page,
                m.plane, m.block))
            ftl._open[die_index] = reopen
            stats.reopened_blocks += 1
            for meta in partials:
                if meta is not reopen:
                    meta.sealed = True
                    stats.sealed_blocks += 1
        return ftl, stats

    # -- host API ----------------------------------------------------------------------

    def read_page(self, lpn: int) -> tuple[bytes | None, PPA | None,
                                           list[PhysOp]]:
        """Look up and read a logical page.

        Returns ``(None, None, [])`` for never-written pages (the block
        device reads them as zeros).
        """
        self._check_lpn(lpn)
        ppa = self._l2p.get(lpn)
        if ppa is None:
            return None, None, []
        die = self.dies[ppa.die]
        data = die.read_page(ppa.plane, ppa.block, ppa.page)
        self.stats.host_reads += 1
        return data, ppa, [PhysOp("read", ppa.die)]

    def write_page(self, lpn: int, data: bytes) -> tuple[PPA, list[PhysOp]]:
        """Write a logical page out-of-place; returns its new PPA."""
        self._check_lpn(lpn)
        ops: list[PhysOp] = []
        ops.extend(self._maybe_collect_garbage())
        ppa, program_ops = self._append(lpn, data, gc=False)
        ops.extend(program_ops)
        return ppa, ops

    def relocate(self, lpn: int) -> list[PhysOp]:
        """Proactively rewrite a logical page to a fresh block.

        The patrol scrubber's remap primitive: the current copy is
        read die-side (the stored payload is always recoverable there)
        and appended elsewhere, invalidating the decaying location.
        Refused with :class:`DegradedModeError` once the module is
        read-only — scrub must not consume the last healthy blocks.
        """
        self._check_lpn(lpn)
        if self.health is not None and self.health.read_only:
            raise DegradedModeError(
                f"relocation of lpn {lpn} refused; module is read-only",
                reason=self.health.reason or "read-only")
        if self._l2p.get(lpn) is None:
            return []
        ops: list[PhysOp] = []
        ops.extend(self._maybe_collect_garbage())
        # Re-fetch AFTER garbage collection: GC (or a static-leveling
        # migration) may have just relocated this very LPN and erased
        # its old block — reading the captured pre-GC address would
        # return erased flash (0xFF) and re-append it as the page's
        # content: a self-consistent, silent corruption.
        ppa = self._l2p.get(lpn)
        if ppa is None:
            return ops
        data = self.dies[ppa.die].read_page(ppa.plane, ppa.block, ppa.page)
        ops.append(PhysOp("read", ppa.die))
        _, program_ops = self._append(lpn, data, gc=True)
        ops.extend(program_ops)
        self.stats.scrub_relocations += 1
        return ops

    def trim(self, lpn: int) -> list[PhysOp]:
        """Drop the mapping for a logical page (discard), durably.

        A volatile ``pop`` would resurrect the LPN at the next mount
        (the old data copy still sits on flash with the winning seq), so
        trim appends a tombstone page whose OOB stamp outvotes every
        older copy.  Idempotent: re-trimming, or trimming a never-written
        LPN, programs nothing.
        """
        self._check_lpn(lpn)
        if lpn not in self._l2p:
            return []   # never written, or already durably tombstoned
        ops: list[PhysOp] = []
        ops.extend(self._maybe_collect_garbage())
        _, program_ops = self._append(lpn, self._zero_page, gc=False,
                                      kind="trim")
        ops.extend(program_ops)
        self.stats.trim_tombstones += 1
        return ops

    def mapping(self, lpn: int) -> PPA | None:
        """Current physical location of a logical page, if any."""
        return self._l2p.get(lpn)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def mapped_pages(self) -> int:
        return len(self._l2p)

    @property
    def tombstoned_pages(self) -> int:
        """LPNs whose live durable record is a trim tombstone."""
        return len(self._tombstones)

    # -- allocation --------------------------------------------------------------------

    def _append(self, lpn: int, data: bytes, gc: bool,
                kind: str = "data") -> tuple[PPA, list[PhysOp]]:
        ops: list[PhysOp] = []
        attempts = 0
        while True:
            attempts += 1
            if attempts > self.remap_budget:
                if self.health is not None:
                    self.health.record("ftl", "remap-exhausted")
                raise DegradedModeError(
                    f"write of lpn {lpn} failed {attempts - 1} remaps; "
                    "media exhausted", reason="remap-exhausted")
            die_index = self._pick_die()
            meta = self._open_block(die_index)
            page = self.dies[die_index].block_info(
                meta.plane, meta.block).next_page
            stamp = OOB(lpn=lpn, seq=self._seq, crc=zlib.crc32(data),
                        kind=kind)
            self._seq += 1
            if self.fault_clock is not None:
                try:
                    self.fault_clock.tick("ftl.program")
                except PowerLossInterrupt:
                    # The cut lands mid-program: the page tears — its
                    # leading bytes reach the cells under the intended
                    # OOB stamp, and the L2P never learns of it.
                    try:
                        self.dies[die_index].program_torn(
                            meta.plane, meta.block, page, data, oob=stamp)
                    except MediaError:
                        pass   # the block failed outright instead
                    else:
                        self.stats.torn_programs += 1
                        if page + 1 >= self.spec.pages_per_block:
                            self._open[die_index] = None
                    raise
            try:
                self.dies[die_index].program_page(
                    meta.plane, meta.block, page, data, oob=stamp)
            except MediaError:
                # Grown bad block: retire it and remap the write to a
                # fresh block — the paper's bad-block handling path.
                self.stats.program_retries += 1
                if self.health is not None:
                    self.health.record("ftl", "remap")
                ops.extend(self._retire(meta))
                continue
            break
        ops.append(PhysOp("program", die_index))
        if gc:
            self.stats.gc_programs += 1
        else:
            self.stats.host_programs += 1
        old = self._l2p.get(lpn)
        if old is not None:
            self._invalidate(old)
        old_tomb = self._tombstones.pop(lpn, None)
        if old_tomb is not None:
            self._invalidate(old_tomb)
        ppa = PPA(die_index, meta.plane, meta.block, page)
        if kind == "trim":
            self._l2p.pop(lpn, None)
            self._tombstones[lpn] = ppa
        else:
            self._l2p[lpn] = ppa
        meta.valid += 1
        meta.lpns[page] = lpn
        meta.last_seq = stamp.seq
        if page + 1 >= self.spec.pages_per_block:
            self._open[die_index] = None   # block is full; close it
        if self.on_commit is not None:
            self.on_commit(lpn, stamp.crc, kind)
        return ppa, ops

    def _pick_die(self) -> int:
        """Round-robin across dies, skipping dies with no space."""
        for _ in range(len(self.dies)):
            die_index = self._next_die
            self._next_die = (self._next_die + 1) % len(self.dies)
            if self._open[die_index] is not None or self._has_free(die_index):
                return die_index
        # Fall back to any die with a free block at all.
        for die_index in range(len(self.dies)):
            if self._open[die_index] is not None or self._has_free(die_index):
                return die_index
        raise FTLError("no die has free blocks; GC failed to reclaim space")

    def _has_free(self, die_index: int) -> bool:
        return any(key[0] == die_index for key in self._free)

    def _open_block(self, die_index: int) -> _BlockMeta:
        meta = self._open[die_index]
        if meta is not None:
            return meta
        candidates = [key for key in self._free if key[0] == die_index]
        if not candidates:
            raise FTLError(f"die {die_index} has no free blocks")
        # Wear levelling: least-erased candidate first.
        key = min(candidates, key=lambda k: self.dies[k[0]].block_info(
            k[1], k[2]).erase_count)
        self._free.remove(key)
        meta = _BlockMeta(die=key[0], plane=key[1], block=key[2])
        self._blocks[key] = meta
        self._open[die_index] = meta
        return meta

    def _invalidate(self, ppa: PPA) -> None:
        meta = self._blocks.get((ppa.die, ppa.plane, ppa.block))
        if meta is None:
            raise FTLError(f"invalidate of untracked block {ppa}")
        if meta.lpns.pop(ppa.page, None) is not None:
            meta.valid -= 1

    def _retire(self, meta: _BlockMeta) -> list[PhysOp]:
        """Retire a grown-bad block: rescue its live pages, fence it off.

        Bad-block management must copy surviving valid pages out
        *before* the block is marked bad (reads from bad blocks are
        refused); otherwise every earlier write that landed in the
        block becomes silent data loss the next host read trips over.
        The rescue is bounded recursion: a rescue program that fails
        retires another (distinct) block, and every ``_append`` carries
        its own remap budget.
        """
        die = self.dies[meta.die]
        survivors = [
            (lpn, die.read_page(meta.plane, meta.block, page),
             PPA(meta.die, meta.plane, meta.block, page))
            for page, lpn in sorted(meta.lpns.items())]
        die.mark_bad(meta.plane, meta.block)
        self.stats.grown_bad_blocks += 1
        if self.health is not None:
            self.health.record("ftl", "bad-block")
        if self._open.get(meta.die) is meta:
            self._open[meta.die] = None
        meta.lpns.clear()
        meta.valid = 0
        ops: list[PhysOp] = [PhysOp("read", meta.die) for _ in survivors]
        for lpn, data, old_ppa in survivors:
            if self._tombstones.get(lpn) == old_ppa:
                # A live tombstone: rewrite it, or the trim un-commits.
                _, program_ops = self._append(lpn, self._zero_page,
                                              gc=True, kind="trim")
                ops.extend(program_ops)
                self.stats.rescued_pages += 1
                continue
            if self._l2p.get(lpn) != old_ppa:
                continue   # rewritten elsewhere since the read above
            _, program_ops = self._append(lpn, data, gc=True)
            ops.extend(program_ops)
            self.stats.rescued_pages += 1
        return ops

    # -- garbage collection --------------------------------------------------------------

    def _maybe_collect_garbage(self) -> list[PhysOp]:
        if len(self._free) > self.GC_LOW_WATER:
            return self._maybe_static_level()
        self.stats.gc_invocations += 1
        ops: list[PhysOp] = []
        guard = 0
        while len(self._free) < self.GC_HIGH_WATER:
            guard += 1
            if guard > 64:
                break
            victim = self._pick_victim()
            if victim is None:
                break
            ops.extend(self._collect(victim))
        return ops

    def _maybe_static_level(self) -> list[PhysOp]:
        """``static`` leveling: periodically migrate the coldest block.

        Cold data parks in low-wear blocks forever under greedy GC (a
        fully-valid block is never a victim), so the wear spread only
        grows.  Every :attr:`static_level_period` erases — and only
        while the free pool sits above the GC trigger — the closed
        block with the lowest erase count is collected outright: its
        (cold) pages move into the current write stream and its
        low-wear block re-enters the free pool, where
        least-erased-first allocation hands it to hot data next.
        """
        if self.victim_strategy != "static":
            return []
        if self.stats.erases < self._static_level_due:
            return []
        if len(self._free) <= self.GC_LOW_WATER:
            return []   # space is tight; plain GC owns the pool
        self._static_level_due = self.stats.erases + self.static_level_period
        best_key: tuple[int, int, int] | None = None
        best: _BlockMeta | None = None
        best_wear = 0
        for key, meta in self._victim_candidates():
            if meta.valid <= 0:
                continue   # already stale; plain GC will reclaim it
            wear = self.dies[key[0]].block_info(key[1], key[2]).erase_count
            if (best_key is None or wear < best_wear
                    or (wear == best_wear and key < best_key)):
                best_key, best, best_wear = key, meta, wear
        if best is None:
            return []
        return self._collect(best)

    def _victim_candidates(self):
        """Closed, reclaimable blocks: ``(key, meta)`` pairs."""
        for key, meta in self._blocks.items():
            if meta is self._open.get(meta.die):
                continue
            if key in self._free:
                continue
            full = meta.sealed or self.dies[meta.die].block_info(
                meta.plane, meta.block).next_page >= self.spec.pages_per_block
            if not full:
                continue
            yield key, meta

    def _pick_victim(self) -> _BlockMeta | None:
        """Select the next GC victim under the configured strategy.

        * ``greedy`` (default) / ``static`` — the closed block with the
          fewest valid pages; equal-``valid`` candidates tie-break on
          the ``(die, plane, block)`` key, never on dict insertion
          order, so victim choice is independent of allocation history
          quirks and of ``PYTHONHASHSEED``.
        * ``cost_benefit`` — maximise ``age * freed / (valid + 1)``
          where ``age`` is program-counter distance since the block was
          last written: cold, mostly-stale blocks win even when a
          slightly-emptier hot block exists, which recycles low-wear
          blocks into the allocation pool (allocation prefers the
          least-erased free block).  Ties break on the key.
        """
        best_key: tuple[int, int, int] | None = None
        best: _BlockMeta | None = None
        if self.victim_strategy == "cost_benefit":
            best_score = -1.0
            for key, meta in self._victim_candidates():
                freed = self.spec.pages_per_block - meta.valid
                if freed <= 0:
                    continue   # nothing reclaimable in this block
                age = self._seq - meta.last_seq
                score = age * freed / (meta.valid + 1)
                if (best_key is None or score > best_score
                        or (score == best_score and key < best_key)):
                    best_key, best, best_score = key, meta, score
            return best
        for key, meta in self._victim_candidates():
            if (best_key is None or meta.valid < best.valid
                    or (meta.valid == best.valid and key < best_key)):
                best_key, best = key, meta
        if best is not None and best.valid >= self.spec.pages_per_block:
            return None   # nothing reclaimable
        return best

    def _collect(self, victim: _BlockMeta) -> list[PhysOp]:
        ops: list[PhysOp] = []
        die = self.dies[victim.die]
        for page, lpn in sorted(victim.lpns.items()):
            if self.fault_clock is not None:
                self.fault_clock.tick("ftl.gc")
            old_ppa = PPA(victim.die, victim.plane, victim.block, page)
            if self._tombstones.get(lpn) == old_ppa:
                # Relocate the tombstone: erasing the only durable
                # record of a trim would resurrect the LPN at mount.
                _, program_ops = self._append(lpn, self._zero_page,
                                              gc=True, kind="trim")
                ops.extend(program_ops)
                continue
            data = die.read_page(victim.plane, victim.block, page)
            ops.append(PhysOp("read", victim.die))
            self.stats.gc_reads += 1
            _, program_ops = self._append(lpn, data, gc=True)
            ops.extend(program_ops)
        victim.lpns.clear()
        victim.valid = 0
        key = (victim.die, victim.plane, victim.block)
        try:
            die.erase_block(victim.plane, victim.block)
        except MediaError:
            ops.extend(self._retire(victim))
            self._blocks.pop(key, None)
            return ops
        ops.append(PhysOp("erase", victim.die))
        self.stats.erases += 1
        self._blocks.pop(key, None)
        if die.block_info(victim.plane, victim.block).bad:
            # The erase succeeded but crossed the endurance limit: the
            # die marked the block worn out.  Never re-free a bad block
            # — that would hand allocation a block whose next program
            # is refused die-side.
            self.stats.grown_bad_blocks += 1
            if self.health is not None:
                self.health.record("ftl", "bad-block")
        else:
            self._free.append(key)
        return ops

    # -- wear-out housekeeping -------------------------------------------------------------

    def retire_worn_free_blocks(self) -> int:
        """Fence off free blocks that have consumed their endurance.

        An aging fast-forward bumps erase counts without running the
        erases, so a free block can sit past the endurance limit
        without the die ever having had the chance to mark it bad.
        Walk the free pool (sorted, for determinism), retire every worn
        block as grown-bad, and report how many were retired.  Non-free
        worn blocks are left alone — they die on their next real erase
        (see :meth:`_collect`).
        """
        worn = sorted(
            key for key in self._free
            if self.dies[key[0]].block_info(key[1], key[2]).erase_count
            >= self.spec.endurance_pe_cycles)
        for key in worn:
            self._free.remove(key)
            self.dies[key[0]].mark_bad(key[1], key[2])
            self.stats.grown_bad_blocks += 1
            if self.health is not None:
                self.health.record("ftl", "bad-block")
        return len(worn)

    # -- misc ------------------------------------------------------------------------------

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise FTLError(
                f"logical page {lpn} out of range (0..{self.logical_pages})")
