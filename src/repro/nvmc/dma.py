"""The NVMC's DMA engine: bounded transfers inside refresh windows.

"During the extra tRFC time, the DMA and DDR4 controllers ... can
perform up to 4 KB data transfer from/to the DRAM cache" (§IV-A).  The
engine enforces that bound, computes how long a transfer occupies the
window, and refuses transfers that cannot complete before the window
closes — the hardware invariant the whole mechanism rests on.

The per-window byte budget is a parameter because the paper's §VII-C
ASIC roadmap includes "increasing the total amount of data transferred
during tRFC up to 8 KB".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ddr.imc import RefreshWindow
from repro.ddr.spec import DDR4Spec
from repro.errors import DeviceError
from repro.units import PAGE_4K


@dataclass
class DMAStats:
    """Aggregate DMA counters."""

    transfers: int = 0
    bytes_moved: int = 0
    windows_used: int = 0
    #: Transfers that ended short of the request (injected faults or an
    #: early window close); the remainder moves in a later window.
    partial_transfers: int = 0


class DMAEngine:
    """Window-bounded mover between the DRAM cache and NVMC buffers."""

    def __init__(self, spec: DDR4Spec, window_bytes: int = PAGE_4K,
                 setup_ps: int = 0) -> None:
        if window_bytes <= 0:
            raise DeviceError("window byte budget must be positive")
        self.spec = spec
        self.window_bytes = window_bytes
        self.setup_ps = setup_ps
        self.stats = DMAStats()
        #: Per-size memo — spec/setup are fixed for the engine's
        #: lifetime and real traffic uses a handful of sizes (64 B CP
        #: lines, 4 KB pages), so the arithmetic runs once per size.
        self._time_cache: dict[int, int] = {}

    def transfer_time_ps(self, nbytes: int) -> int:
        """Bus time for ``nbytes``: burst-granular, open-page transfers.

        Each 64 B burst occupies tCCD on the channel; the first adds the
        ACT + tRCD + CAS lead-in.
        """
        cached = self._time_cache.get(nbytes)
        if cached is not None:
            return cached
        bursts = -(-nbytes // self.spec.burst_bytes)
        lead_in = self.spec.trcd_ps + self.spec.tcl_ps
        time_ps = self.setup_ps + lead_in + bursts * self.spec.tccd_ps
        self._time_cache[nbytes] = time_ps
        return time_ps

    def fits_in_window(self, nbytes: int, window: RefreshWindow) -> bool:
        """Whether a transfer both respects the byte budget and the time."""
        if nbytes > self.window_bytes:
            return False
        return self.transfer_time_ps(nbytes) <= window.duration_ps

    def schedule(self, nbytes: int, window: RefreshWindow) -> int:
        """Book a transfer into ``window``; returns its completion time.

        Raises :class:`DeviceError` if the transfer cannot legally fit —
        the RTL would simply never start such a transfer.  A size the
        duration memo holds costs one lookup plus the two checks.
        """
        duration = self._time_cache.get(nbytes)
        if nbytes > self.window_bytes:
            raise DeviceError(
                f"transfer of {nbytes} B exceeds the per-window budget "
                f"of {self.window_bytes} B")
        if duration is None:
            duration = self.transfer_time_ps(nbytes)
        start = window.start_ps
        if duration > window.end_ps - start:
            raise DeviceError(
                f"transfer of {nbytes} B needs {duration} ps but the "
                f"window is only {window.duration_ps} ps")
        stats = self.stats
        stats.transfers += 1
        stats.bytes_moved += nbytes
        stats.windows_used += 1
        return start + duration

    def max_bytes_for(self, window: RefreshWindow) -> int:
        """Largest burst-aligned transfer that fits this window."""
        budget_ps = window.duration_ps - self.setup_ps
        lead_in = self.spec.trcd_ps + self.spec.tcl_ps
        budget_ps -= lead_in
        if budget_ps <= 0:
            return 0
        bursts = budget_ps // self.spec.tccd_ps
        return min(self.window_bytes, bursts * self.spec.burst_bytes)
