"""The nvdc driver: DRAM-cache management over the CP protocol.

This is the software half of NVDIMM-C (§IV-B/§IV-C, Fig. 6):

* the 120 GB block device is direct-mapped: sector -> 4 KB NAND page;
* the reserved region's slots form a fully associative, 4 KB-line cache
  of those pages;
* a miss allocates a free slot (or evicts a victim — writeback first if
  dirty) and performs a *cachefill* through the CP mailbox;
* explicit coherence brackets every CP operation: ``clflush`` +
  ``sfence`` before a writeback so the device snapshots current bytes,
  cacheline invalidation after a cachefill so the CPU cannot serve
  stale data (§V-B);
* eviction policy is pluggable — the PoC's LRC, or LRU/CLOCK for the
  §VII-B5 study.

``skip_coherence=True`` builds the *broken* driver that omits the §V-B
bracket; the coherence tests use it to demonstrate the corruption the
paper warns about.

The PoC has no per-page dirty tracking through the writable DAX
mappings, so it conservatively treats every mapped page as dirty
(``conservative_dirty=True``, the configuration that reproduces the
measured read-miss cost of a full writeback+cachefill pair, §VII-B2).
Precise dirty tracking is available for the ablation bench.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.cpu.cache import CPUCache
from repro.ddr.device import DRAMDevice
from repro.errors import (CPTimeoutError, DegradedModeError, FailStopError,
                          KernelError, MediaError, PowerLossInterrupt)
from repro.health.retry import policy_for
from repro.kernel.blockdev import (BlockDevice, DaxMapping, sector_to_page)
from repro.kernel.eviction import EvictionPolicy, make_policy
from repro.kernel.memmap import ReservedRegion
from repro.nvmc.cp import CPAck, CPCommand, Opcode
from repro.sim.snapshot import SnapshotMixin
from repro.sim.trace import MessageTemplate
from repro.nvmc.nvmc import NVMCModel, OperationResult
from repro.perf.calibration import CalibrationConstants, DEFAULT_CALIBRATION
from repro.units import PAGE_4K

#: Trace messages, rendered from the record's fields only when read.
_DIRTIED = MessageTemplate("page {page} dirtied")
_FAULTED = MessageTemplate("fault page {page} -> slot {slot}")
_SLOT = MessageTemplate("slot {slot}")
_DEGRADED_READ = MessageTemplate("direct media read of page {page}")


@dataclass
class NvdcStats:
    """Driver-level counters."""

    hits: int = 0
    misses: int = 0
    cachefills: int = 0
    writebacks: int = 0
    evictions: int = 0
    merged_ops: int = 0
    overwrite_claims: int = 0
    fault_ns_total: float = 0.0
    windows_total: int = 0
    #: CP exchanges re-issued after a missing or unusable ack.
    cp_retries: int = 0
    #: Ack polls that hit the timeout (no ack at all).
    cp_timeouts: int = 0
    #: CP exchanges the device failed with MEDIA_ERROR.
    media_errors: int = 0
    #: CP exchanges the device refused with a DEGRADED ack.
    degraded_refusals: int = 0
    #: Read misses served directly from the media while read-only.
    degraded_reads: int = 0
    #: Evictions undone because the victim's writeback failed — the
    #: cache copy was the only current one, so the mapping is restored.
    eviction_rollbacks: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class NvdcDriver(BlockDevice, SnapshotMixin):
    """Driver for /dev/nvdc0."""

    def __init__(self, region: ReservedRegion, nvmc: NVMCModel,
                 dram: DRAMDevice, cpu_cache: CPUCache | None = None,
                 policy: str | EvictionPolicy = "lrc",
                 conservative_dirty: bool = True,
                 skip_coherence: bool = False,
                 use_merged_commands: bool = False,
                 calibration: CalibrationConstants = DEFAULT_CALIBRATION,
                 name: str = "nvdc0") -> None:
        capacity = nvmc.nand.logical_capacity_bytes
        super().__init__(name, capacity)
        self.region = region
        self.nvmc = nvmc
        self.dram = dram
        self.cpu_cache = cpu_cache
        self.policy: EvictionPolicy = (
            make_policy(policy) if isinstance(policy, str) else policy)
        self.conservative_dirty = conservative_dirty
        self.skip_coherence = skip_coherence
        self.use_merged_commands = use_merged_commands
        self.calibration = calibration
        # Mapping state (lives in the Fig. 5 metadata area on hardware).
        self.page_to_slot: dict[int, int] = {}
        self.slot_to_page: dict[int, int] = {}
        self.dirty_slots: set[int] = set()
        #: In-flight-writeback journal entry: ``(slot, page)`` while a
        #: victim's WRITEBACK/MERGED exchange is outstanding.  The victim
        #: mapping leaves ``slot_to_page`` before the device snapshots
        #: the page, so a power cut mid-writeback would otherwise miss
        #: it during the §V-C drain; the metadata area keeps this one
        #: extra mapping until the ack lands.
        self.inflight_writeback: tuple[int, int] | None = None
        self.free_slots: deque[int] = deque(range(region.num_slots))
        #: Called with the evicted device page: the DAX layers register
        #: PTE teardown here (§IV-B stores "the pointer to the
        #: associated PTE" in the FIFO for exactly this purpose).
        self.on_evict: list = []
        self.stats = NvdcStats()
        #: Shared module-health state (installed on the NVMC by the
        #: system composition; ``None`` for standalone constructions).
        self.health = getattr(nvmc, "health", None)
        #: CP exchange retry schedule: the calibrated timeout as the
        #: base, exponential with deterministic jitter, capped at 8x —
        #: the taxonomy budget for :class:`~repro.errors.CPTimeoutError`
        #: specialised to this driver's calibration.
        self.cp_retry_policy = policy_for(
            CPTimeoutError,
            max_attempts=1 + calibration.cp_max_retries,
            base_ps=calibration.cp_timeout_ps,
            cap_ps=8 * calibration.cp_timeout_ps,
            site=name)
        # Point the NVMC's slot arithmetic at our slot area.
        nvmc.slot_base = region.base_paddr + region.layout.slots_offset
        # The driver traces into its device's stream under the same owner
        # token, so the coherence sanitizer can correlate CP commands with
        # the flush/invalidate bracket that must surround them.
        self.tracer = nvmc.tracer
        self.trace_owner = nvmc.trace_owner
        if self.tracer.enabled:
            self.tracer.emit(0, "nvdc.attach", f"{name} attached",
                             owner=self.trace_owner,
                             coherent=cpu_cache is not None,
                             skip_coherence=skip_coherence)

    # -- fast-path lookup (the post-fault mapped state) ---------------------------------

    def lookup(self, page: int) -> int | None:
        """Slot holding ``page`` if cached, else None (no side effects
        beyond recency bookkeeping)."""
        slot = self.page_to_slot.get(page)
        if slot is not None:
            self.stats.hits += 1
            self.policy.on_access(slot)
        return slot

    def mark_write(self, page: int, now_ps: int = 0) -> None:
        """Record a store to a cached page (dirty bookkeeping)."""
        slot = self.page_to_slot.get(page)
        if slot is not None:
            self._mark_dirty(slot, page, now_ps)

    def _mark_dirty(self, slot: int, page: int, now_ps: int) -> None:
        health = self.health
        if health is not None and health.read_only:
            if health.failed:
                raise FailStopError(
                    f"{self.name}: store to page {page} refused; module "
                    "is fail-stop", reason=health.reason or "fail-stop")
            raise DegradedModeError(
                f"{self.name}: store to page {page} refused; module is "
                "read-only", reason=health.reason or "read-only")
        self.dirty_slots.add(slot)
        if self.tracer.enabled:
            self.tracer.emit(now_ps, "nvdc.dirty", _DIRTIED,
                             owner=self.trace_owner, page=page, slot=slot,
                             addr=self.region.slot_paddr(slot))

    # -- the miss path (Fig. 6) -----------------------------------------------------------

    def fault(self, page: int, now_ps: int, for_write: bool,
              full_page_write: bool = False) -> tuple[int, int]:
        """Resolve a miss on device page ``page``; returns (slot, end).

        Implements the §IV-B flow: free slot -> cachefill; no free slot
        -> evict (writeback if dirty) then cachefill.

        ``full_page_write`` marks block-layer writes that cover the
        whole 4 KB page: when a *free slot* is available, those skip
        the CP exchange entirely (the slot is claimed and overwritten),
        which is how the PoC reaches its SSD-limited 518 MB/s during
        the Fig. 7 free-slot phase.  On the eviction path the PoC still
        performs the full writeback+cachefill pair — the DAX fault
        handler cannot know the upcoming store pattern (§VII-B1).
        """
        if not 0 <= page < self.num_pages:
            raise KernelError(f"{self.name}: page {page} beyond device")
        if page in self.page_to_slot:
            raise KernelError(f"{self.name}: fault on cached page {page}")
        health = self.health
        degraded = health is not None and health.read_only
        if degraded:
            if health.failed:
                raise FailStopError(
                    f"{self.name}: module is fail-stop; all I/O refused",
                    reason=health.reason or "fail-stop")
            if for_write:
                raise DegradedModeError(
                    f"{self.name}: write refused; module is read-only",
                    reason=health.reason or "read-only")
        self.stats.misses += 1
        t = now_ps + self.calibration.nvdc_miss_sw_ps

        victim_page: int | None = None
        victim_dirty = False
        if not self.free_slots:
            victim = self.policy.pick_victim()
            victim_page = self.slot_to_page.pop(victim)
            del self.page_to_slot[victim_page]
            # A read-only module trusts precise dirty tracking: nothing
            # new dirties, and conservatively writing back clean victims
            # would be refused anyway.
            victim_dirty = (victim in self.dirty_slots
                            or (self.conservative_dirty and not degraded))
            self.dirty_slots.discard(victim)
            self.stats.evictions += 1
            for callback in self.on_evict:
                callback(victim_page)
            if victim_dirty and not self.use_merged_commands:
                self.inflight_writeback = (victim, victim_page)
                try:
                    t = self._writeback(victim, victim_page, t)
                except (MediaError, CPTimeoutError, PowerLossInterrupt):
                    # Error *or* power cut mid-writeback: the slot still
                    # holds the only current copy, so re-instate the
                    # mapping.  For a cut this is what lets the §V-C
                    # drain (which snapshots slot_to_page) cover the
                    # victim — the finally below clears the journal
                    # field before the drain ever looks at it.
                    self._rollback_eviction(victim, victim_page, dirty=True)
                    raise
                finally:
                    self.inflight_writeback = None
            self.free_slots.append(victim)

        slot = self.free_slots.popleft()
        if full_page_write and victim_page is None:
            t = self._claim_for_overwrite(slot, t)
        elif (self.use_merged_commands and victim_page is not None
                and victim_dirty):
            self.inflight_writeback = (slot, victim_page)
            try:
                t = self._merged(slot, page, slot, victim_page, t)
            except (MediaError, CPTimeoutError, PowerLossInterrupt):
                self._rollback_eviction(slot, victim_page, dirty=True)
                raise
            finally:
                self.inflight_writeback = None
        else:
            try:
                t = self._cachefill(slot, page, t)
            except (MediaError, CPTimeoutError, PowerLossInterrupt):
                self.free_slots.appendleft(slot)   # do not leak the slot
                raise
        self.page_to_slot[page] = slot
        self.slot_to_page[slot] = page
        self.policy.on_cached(slot)
        if for_write or (self.conservative_dirty and not degraded):
            self._mark_dirty(slot, page, t)
        if self.tracer.enabled:
            self.tracer.emit(t, "nvdc.op", _FAULTED,
                             owner=self.trace_owner, page=page, slot=slot,
                             start_ps=now_ps)
        self.stats.fault_ns_total += (t - now_ps) / 1000.0
        return slot, t

    def _rollback_eviction(self, slot: int, page: int, dirty: bool) -> None:
        """Undo an eviction whose writeback failed.

        The cache slot still holds the only current copy of ``page``
        (the device never snapshotted it), so dropping the mapping
        would lose committed data — restore it instead and let the
        error propagate.
        """
        self.slot_to_page[slot] = page
        self.page_to_slot[page] = slot
        if dirty:
            self.dirty_slots.add(slot)
        self.policy.on_cached(slot)
        self.stats.eviction_rollbacks += 1

    # -- CP exchanges -----------------------------------------------------------------------

    def _flush_bracket(self, paddr: int, slot: int, now_ps: int) -> None:
        """§V-B pre-writeback bracket: clflush the slot, then sfence."""
        if self.cpu_cache is not None and not self.skip_coherence:
            self.cpu_cache.flush_range(paddr, PAGE_4K)
            self.cpu_cache.sfence()
            self._trace_coherence("nvdc.flush", now_ps, paddr, slot)
            self._trace_coherence("nvdc.sfence", now_ps, paddr, slot)

    def _invalidate(self, paddr: int, slot: int, now_ps: int) -> None:
        """§V-B post-cachefill action: drop the slot's CPU-cached lines."""
        if self.cpu_cache is not None and not self.skip_coherence:
            self.cpu_cache.invalidate_range(paddr, PAGE_4K)
            self._trace_coherence("nvdc.invalidate", now_ps, paddr, slot)

    def _exchange(self, opcode: Opcode, now_ps: int,
                  flush_slot: int | None, fill_slot: int | None,
                  operands: tuple[int, ...]) -> OperationResult:
        """One CP exchange with timeout/backoff and re-issue (§IV-C).

        ``operands`` are the command's fields after the opcode, in
        :class:`CPCommand` order (``dram_slot``, ``nand_page`` and, for
        MERGED, ``wb_dram_slot``, ``wb_nand_page``).

        Each attempt re-establishes the §V-B coherence bracket: the
        flush+sfence before any write-carrying command (the device must
        snapshot *current* bytes on every attempt), and — on re-issues —
        an invalidation of the fill target, since an earlier attempt may
        already have deposited data the CPU could be caching stale.

        A missing ack (corrupted command word, lost ack write) times out
        after ``cp_timeout_ps`` and backs off per the driver's
        :class:`~repro.health.retry.RetryPolicy` (capped exponential
        with deterministic jitter); the ack area is poisoned before
        re-posting so a stale ack from an earlier command cannot be
        mistaken for a fresh one.  A ``DECODE_ERROR`` ack is re-issued
        immediately (zero backoff — the device proved it is alive).
        ``MEDIA_ERROR`` is not a protocol failure and is raised to the
        caller; ``DEGRADED`` means retrying is pointless and raises
        :class:`~repro.errors.DegradedModeError` (or
        :class:`~repro.errors.FailStopError`) with the health monitor's
        reason.  Once the policy's attempt budget is spent the driver
        gives up with :class:`CPTimeoutError`.
        """
        t = now_ps
        attempts = 0
        policy = self.cp_retry_policy
        health = self.health
        # Both brackets act on the CPU cache only: without one, skip
        # their address arithmetic too.
        coherent = self.cpu_cache is not None
        while policy.allows(attempts):
            attempts += 1
            if flush_slot is not None and coherent:
                self._flush_bracket(self.region.slot_paddr(flush_slot),
                                    flush_slot, t)
            if attempts > 1:
                if fill_slot is not None and coherent:
                    self._invalidate(self.region.slot_paddr(fill_slot),
                                     fill_slot, t)
                self.nvmc.cp.clear_ack(0)
                self.stats.cp_retries += 1
                if health is not None:
                    health.record("nvdc", "cp-retry", time_ps=t)
            command = CPCommand(self.nvmc.next_phase(), opcode, *operands)
            result = self.nvmc.submit(command, t)
            ack = self.nvmc.cp.poll_ack(0, command.phase)
            if ack is None:
                # Busy-wait until the timeout, back off, re-issue.
                self.stats.cp_timeouts += 1
                t = max(result.completion_ps,
                        t + policy.backoff_ps(attempts, site=opcode.name))
                if health is not None:
                    health.record("nvdc", "cp-timeout", time_ps=t)
                if self.tracer.enabled:
                    self.tracer.emit(t, "cp.abandon",
                                     f"{opcode.name} ack timeout",
                                     owner=self.trace_owner,
                                     opcode=opcode.name, attempt=attempts)
                continue
            if ack.status == CPAck.MEDIA_ERROR:
                self.stats.media_errors += 1
                raise MediaError(
                    f"{self.name}: {opcode.name} failed with MEDIA_ERROR "
                    f"(attempt {attempts})")
            if ack.status == CPAck.DEGRADED:
                self.stats.degraded_refusals += 1
                reason = (health.reason or "degraded") if health is not None \
                    else "degraded"
                if health is not None and health.failed:
                    raise FailStopError(
                        f"{self.name}: {opcode.name} refused; module is "
                        "fail-stop", reason=reason)
                raise DegradedModeError(
                    f"{self.name}: {opcode.name} refused; module is "
                    "read-only", reason=reason)
            if ack.status != CPAck.OK:   # DECODE_ERROR: re-issue
                t = result.completion_ps + self.calibration.nvdc_ack_poll_ps
                continue
            if health is not None:
                health.maybe_relax(result.completion_ps)
            return result
        raise CPTimeoutError(
            f"{self.name}: {opcode.name} exchange abandoned after "
            f"{attempts} attempts", attempts=attempts)

    def _writeback(self, slot: int, page: int, now_ps: int) -> int:
        """Flush + CP WRITEBACK + ack poll (§IV-C)."""
        result = self._exchange(Opcode.WRITEBACK, now_ps,
                                flush_slot=slot, fill_slot=None,
                                operands=(slot, page))
        self.stats.writebacks += 1
        self.stats.windows_total += result.windows_used
        return result.completion_ps + self.calibration.nvdc_ack_poll_ps

    def _claim_for_overwrite(self, slot: int, now_ps: int) -> int:
        """Free-slot full-page write: no CP exchange, just hygiene.

        The slot's previous contents are zeroed (a hole must not leak
        another tenant's bytes) and any CPU-cached lines dropped.
        """
        paddr = self.region.slot_paddr(slot)
        self.dram.poke(paddr, bytes(PAGE_4K))
        self._invalidate(paddr, slot, now_ps)
        self.stats.overwrite_claims += 1
        return now_ps

    def _cachefill(self, slot: int, page: int, now_ps: int) -> int:
        """CP CACHEFILL + ack poll + cacheline invalidation (§V-B)."""
        result = self._exchange(Opcode.CACHEFILL, now_ps,
                                flush_slot=None, fill_slot=slot,
                                operands=(slot, page))
        self.stats.cachefills += 1
        self.stats.windows_total += result.windows_used
        if self.cpu_cache is not None:
            self._invalidate(self.region.slot_paddr(slot), slot,
                             result.completion_ps)
        return result.completion_ps + self.calibration.nvdc_ack_poll_ps

    def _merged(self, fill_slot: int, fill_page: int, wb_slot: int,
                wb_page: int, now_ps: int) -> int:
        """§VII-C item (4): one CP command carrying both halves."""
        result = self._exchange(Opcode.MERGED, now_ps,
                                flush_slot=wb_slot, fill_slot=fill_slot,
                                operands=(fill_slot, fill_page, wb_slot,
                                          wb_page))
        self.stats.merged_ops += 1
        self.stats.windows_total += result.windows_used
        if self.cpu_cache is not None:
            self._invalidate(self.region.slot_paddr(fill_slot), fill_slot,
                             result.completion_ps)
        return result.completion_ps + self.calibration.nvdc_ack_poll_ps

    def _trace_coherence(self, category: str, now_ps: int, addr: int,
                         slot: int) -> None:
        """Trace one §V-B coherence action against a slot's paddr."""
        if self.tracer.enabled:
            self.tracer.emit(now_ps, category, _SLOT,
                             owner=self.trace_owner, addr=addr,
                             bytes=PAGE_4K, slot=slot)

    # -- BlockDevice interface -----------------------------------------------------------------

    def device_access(self, sector: int, now_ps: int,
                      for_write: bool) -> DaxMapping:
        """The fsdax hook: byte-addressable mapping for a block."""
        self.check_sector(sector)
        page = sector_to_page(sector)
        health = self.health
        if health is not None and health.failed:
            raise FailStopError(
                f"{self.name}: access to page {page} refused; module is "
                "fail-stop", reason=health.reason or "fail-stop")
        slot = self.page_to_slot.get(page)
        if slot is not None:
            self.stats.hits += 1
            self.policy.on_access(slot)
            if for_write:
                self._mark_dirty(slot, page, now_ps)
            end_ps = now_ps
        else:
            slot, end_ps = self.fault(page, now_ps, for_write)
        paddr = self.region.slot_paddr(slot)
        return DaxMapping(pfn=paddr // PAGE_4K, paddr=paddr, end_ps=end_ps)

    def read_page(self, page: int, now_ps: int) -> tuple[bytes, int]:
        """Block-layer page read (through the DRAM cache).

        In read-only degraded mode a miss that cannot fault (no free
        slot, or the eviction's writeback was refused) falls back to a
        direct media read — committed data stays readable all the way
        down the ladder until fail-stop.
        """
        try:
            mapping = self.device_access(page * 8, now_ps, for_write=False)
        except FailStopError:
            raise
        except DegradedModeError:
            return self._degraded_read(page, now_ps)
        data = self.dram.peek(mapping.paddr, PAGE_4K)
        return data, mapping.end_ps

    def _degraded_read(self, page: int, now_ps: int) -> tuple[bytes, int]:
        """Serve an uncacheable read-only-mode miss from the media.

        No cache allocation, no CP exchange — the same direct path the
        §V-C recovery flow uses.  Only reached for pages that are *not*
        cached, so the NAND copy is the current one.
        """
        data, end_ps = self.nvmc.nand.read_page(page, now_ps)
        if data is None:
            data, end_ps = bytes(PAGE_4K), now_ps
        self.stats.degraded_reads += 1
        if self.tracer.enabled:
            self.tracer.emit(end_ps, "nvdc.degraded", _DEGRADED_READ,
                             owner=self.trace_owner, page=page)
        return data, end_ps

    def write_page(self, page: int, data: bytes, now_ps: int) -> int:
        """Block-layer page write (dirties the DRAM cache slot)."""
        if len(data) != PAGE_4K:
            raise KernelError("write_page needs exactly 4 KB")
        sector = page * 8
        self.check_sector(sector)
        slot = self.page_to_slot.get(page)
        if slot is not None:
            self.stats.hits += 1
            self.policy.on_access(slot)
            self._mark_dirty(slot, page, now_ps)
            end_ps = now_ps
        else:
            slot, end_ps = self.fault(page, now_ps, for_write=True,
                                      full_page_write=True)
        self.dram.poke(self.region.slot_paddr(slot), data)
        return end_ps

    # -- capacity accounting ----------------------------------------------------------------------

    @property
    def cached_pages(self) -> int:
        return len(self.page_to_slot)

    @property
    def free_slot_count(self) -> int:
        return len(self.free_slots)
