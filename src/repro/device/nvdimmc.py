"""Whole-system composition: NVDIMM-C and the pmem baseline.

Both systems expose one surface the workload runners drive:

    end_ps = system.op(offset, nbytes, is_write, now_ps)

which models a libpmem-style DAX access: resolve 4 KB pages (faulting
through the nvdc miss path when uncached), spend the calibrated host
software time, and pass the memory phase through the shared channel.

**Scaling.**  The paper's hardware is 16 GB of cache over a 120 GB
device; holding 3.9 M slot objects per run is wasteful in Python, so
experiments build scaled-down systems (default 1/256: 64 MB cache /
480 MB device).  Every *ratio* that shapes the results — cache:footprint,
slots:pages — is preserved, and no timing constant depends on absolute
capacity, so reported bandwidths are directly comparable with the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.cache import CPUCache
from repro.ddr.device import DRAMDevice
from repro.ddr.imc import RefreshTimeline
from repro.ddr.spec import DDR4Spec, NVDIMMC_1600, DDR4_1600
from repro.health.monitor import HealthMonitor, HealthPolicy
from repro.health.scrub import PatrolScrubber, ScrubConfig
from repro.kernel.memmap import ReservedRegion
from repro.kernel.nvdc import NvdcDriver
from repro.sim.snapshot import SnapshotMixin
from repro.kernel.pmem import PmemDriver
from repro.nand.controller import NANDController
from repro.nand.spec import ZNANDSpec
from repro.nvmc.fsm import FirmwareModel
from repro.nvmc.nvmc import NVMCModel
from repro.perf.calibration import CalibrationConstants, DEFAULT_CALIBRATION
from repro.perf.contention import MemoryChannel
from repro.perf.model import HostCostModel
from repro.sim.trace import Tracer
from repro.units import PAGE_4K, gb, kb, mb


@dataclass
class DaxSystem(SnapshotMixin):
    """The surface workload runners see.

    Concrete systems populate ``timeline``/``cost_model``/``channel``
    and implement ``resolve_page``; ``op`` is shared.
    """

    timeline: RefreshTimeline
    cost_model: HostCostModel
    channel: MemoryChannel
    capacity_bytes: int

    def resolve_page(self, page: int, now_ps: int,
                     is_write: bool) -> int:
        """Ensure the 4 KB device page is byte-addressable; returns the
        time the mapping is usable (now_ps when already mapped)."""
        raise NotImplementedError

    @property
    def now_floor_ps(self) -> int:
        """Earliest sensible start time for new work on this system
        (runners reusing a system must not start behind its shared
        cursors, or queueing delay from past runs pollutes results)."""
        return self.channel.busy_until_ps

    def op(self, offset: int, nbytes: int, is_write: bool,
           now_ps: int) -> int:
        """One DAX access; returns its completion time."""
        t = now_ps
        first = offset // PAGE_4K
        last = (offset + nbytes - 1) // PAGE_4K
        for page in range(first, last + 1):
            t = self.resolve_page(page, t, is_write)
        cost = self.cost_model.cached_cost(nbytes, is_write)
        t += cost.fixed_ps + cost.sw_ps
        occupancy = self.cost_model.channel_service_ps(nbytes, is_write)
        return self.channel.serve_split(t, occupancy, cost.mem_ps)


class NVDIMMCSystem(DaxSystem):
    """The full proposed device: DRAM cache in front of Z-NAND."""

    def __init__(self, cache_bytes: int = mb(64),
                 device_bytes: int = mb(480),
                 spec: DDR4Spec = NVDIMMC_1600,
                 trefi_ps: int | None = None,
                 policy: str = "lrc",
                 firmware: FirmwareModel | None = None,
                 window_bytes: int = PAGE_4K,
                 cp_queue_depth: int = 1,
                 use_merged_commands: bool = False,
                 conservative_dirty: bool = True,
                 with_cpu_cache: bool = False,
                 nand_phy_mhz: int | None = None,
                 calibration: CalibrationConstants = DEFAULT_CALIBRATION,
                 seed: int = 7,
                 tracer: Tracer | None = None,
                 health_policy: HealthPolicy | None = None,
                 scrub_config: ScrubConfig | None = None) -> None:
        if trefi_ps is not None:
            spec = spec.with_trefi(trefi_ps)
        timeline = RefreshTimeline(spec)
        dram = DRAMDevice(spec, capacity_bytes=cache_bytes, name="dram-cache")
        region = ReservedRegion(base_paddr=0, size_bytes=cache_bytes)
        nand_spec = self._nand_spec_for(device_bytes, nand_phy_mhz)
        # One health monitor spans the module: driver, NVMC, NAND
        # controller and FTL all feed and read the same ladder.
        health = HealthMonitor(policy=health_policy, tracer=tracer)
        nand = NANDController(
            nand_spec, logical_capacity_bytes=device_bytes,
            channels=2, dies_total=8, seed=seed, health=health)
        nvmc = NVMCModel(timeline, nand, dram,
                         window_bytes=window_bytes,
                         firmware=firmware or FirmwareModel(),
                         cp_queue_depth=cp_queue_depth,
                         tracer=tracer, health=health)
        cpu_cache = CPUCache(_DramBackend(dram)) if with_cpu_cache else None
        driver = NvdcDriver(region, nvmc, dram, cpu_cache=cpu_cache,
                            policy=policy,
                            conservative_dirty=conservative_dirty,
                            use_merged_commands=use_merged_commands,
                            calibration=calibration)
        super().__init__(timeline=timeline,
                         cost_model=HostCostModel(timeline, "nvdc",
                                                  calibration),
                         channel=MemoryChannel("nvdc-channel"),
                         capacity_bytes=driver.capacity_bytes)
        self.spec = spec
        self.dram = dram
        self.region = region
        self.nand = nand
        self.nvmc = nvmc
        self.cpu_cache = cpu_cache
        self.driver = driver
        self.health = health
        self.scrubber = PatrolScrubber(nvmc, driver=driver, monitor=health,
                                       config=scrub_config)

    @staticmethod
    def _nand_spec_for(device_bytes: int,
                       phy_mhz: int | None) -> ZNANDSpec:
        """Scale the Z-NAND geometry to hold the (scaled) device with
        the paper's 120/128 over-provisioning ratio plus a fixed
        GC-reserve margin (negligible at paper scale, but needed so
        block-rounding at small scales cannot starve the FTL)."""
        gc_margin = 64 * 64 * kb(4)    # 64 blocks of 64 pages
        raw_bytes = device_bytes * 128 // 120 + gc_margin
        per_package = max(raw_bytes // 2, 64 * 2 * 4 * kb(4))
        spec = ZNANDSpec(name="Z-NAND-scaled", capacity_bytes=per_package,
                         pages_per_block=64, dies=4,
                         initial_bad_block_ppm=0)
        if phy_mhz is not None:
            spec = spec.with_phy_mhz(phy_mhz)
        return spec

    def resolve_page(self, page: int, now_ps: int, is_write: bool) -> int:
        slot = self.driver.lookup(page)
        if slot is None:
            _slot, end_ps = self.driver.fault(page, now_ps, is_write)
            return end_ps
        if is_write:
            self.driver.mark_write(page, now_ps)
        return now_ps

    @property
    def now_floor_ps(self) -> int:
        return max(self.channel.busy_until_ps, self.nvmc.ready_ps)

    # -- paper-scale convenience -------------------------------------------------------

    @classmethod
    def paper_scale(cls, scale: int = 256, **kwargs) -> "NVDIMMCSystem":
        """Table-I configuration shrunk by ``scale`` (ratios intact)."""
        return cls(cache_bytes=gb(16) // scale,
                   device_bytes=gb(120) // scale, **kwargs)

    # -- reboot (§V-C recovery) ---------------------------------------------------------

    def remount(self, health: HealthMonitor) -> "NVDIMMCSystem":
        """Boot-time remount after a power cycle.

        DRAM contents are gone; the Z-NAND survives.  Returns a fresh
        system — empty cache, zeroed metadata, same NAND — exactly what
        the nvdc driver sees when the module is re-probed, with
        ``health`` as its monitor: the one
        :func:`repro.recovery.recover_mount` re-seeded from media
        evidence, since the old one's volatile state died with the
        power.
        """
        fresh = object.__new__(NVDIMMCSystem)
        dram = DRAMDevice(self.spec, capacity_bytes=self.dram.capacity_bytes,
                          name="dram-cache")
        region = ReservedRegion(base_paddr=0,
                                size_bytes=self.region.size_bytes)
        nvmc = NVMCModel(self.timeline, self.nand, dram,
                         window_bytes=self.nvmc.dma.window_bytes,
                         firmware=self.nvmc.firmware,
                         cp_queue_depth=self.nvmc.cp.queue_depth,
                         tracer=self.nvmc.tracer,
                         health=health)
        cpu_cache = (CPUCache(_DramBackend(dram))
                     if self.cpu_cache is not None else None)
        driver = NvdcDriver(region, nvmc, dram, cpu_cache=cpu_cache,
                            policy=self.driver.policy.name,
                            conservative_dirty=self.driver.conservative_dirty,
                            use_merged_commands=self.driver.use_merged_commands,
                            calibration=self.driver.calibration)
        DaxSystem.__init__(fresh, timeline=self.timeline,
                           cost_model=self.cost_model,
                           channel=MemoryChannel("nvdc-channel"),
                           capacity_bytes=driver.capacity_bytes)
        fresh.spec = self.spec
        fresh.dram = dram
        fresh.region = region
        fresh.nand = self.nand
        fresh.nvmc = nvmc
        fresh.cpu_cache = cpu_cache
        fresh.driver = driver
        fresh.health = health
        fresh.nand.health = health
        fresh.nand.ftl.health = health
        fresh.scrubber = PatrolScrubber(nvmc, driver=driver,
                                        monitor=health,
                                        config=self.scrubber.config)
        return fresh


class PmemSystem(DaxSystem):
    """The /dev/pmem0 baseline: emulated NVDIMM on plain DRAM."""

    def __init__(self, device_bytes: int = mb(480),
                 spec: DDR4Spec = DDR4_1600,
                 trefi_ps: int | None = None,
                 calibration: CalibrationConstants = DEFAULT_CALIBRATION
                 ) -> None:
        if trefi_ps is not None:
            spec = spec.with_trefi(trefi_ps)
        timeline = RefreshTimeline(spec)
        dram = DRAMDevice(spec, capacity_bytes=device_bytes, name="pmem-dram")
        driver = PmemDriver(dram, base_paddr=0, capacity_bytes=device_bytes)
        super().__init__(timeline=timeline,
                         cost_model=HostCostModel(timeline, "pmem",
                                                  calibration),
                         channel=MemoryChannel("pmem-channel"),
                         capacity_bytes=device_bytes)
        self.spec = spec
        self.dram = dram
        self.driver = driver

    def resolve_page(self, page: int, now_ps: int, is_write: bool) -> int:
        # Every page of a ramdisk-like device is always mapped.
        return now_ps


class _DramBackend:
    """Adapter: DRAMDevice peek/poke as a CPU-cache memory backend."""

    def __init__(self, dram: DRAMDevice) -> None:
        self._dram = dram

    def mem_read(self, addr: int, nbytes: int) -> bytes:
        return self._dram.peek(addr, nbytes)

    def mem_write(self, addr: int, data: bytes) -> None:
        self._dram.poke(addr, data)
