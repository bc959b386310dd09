"""A DDR4 controller: turns byte transfers into legal command sequences.

Both bus masters embed one of these — the host iMC for CPU traffic and
the NVMC for device-side DMA (the paper's §III-B notes the NVMC "must
include a DDR4 controller ... configured to have the same DDR4 timing
parameters with the host system").

The controller keeps its own open-row book (mirroring what it believes
the device state to be — which is exactly the belief a second master can
invalidate, reproducing hazard C2), spaces column commands by tCCD so
the DQ bus never self-overlaps, and honours tRP/tRCD/tRAS around row
switches.
"""

from __future__ import annotations

from repro.ddr.bus import SharedBus
from repro.ddr.commands import Command, CommandKind
from repro.ddr.device import AddressParts
from repro.ddr.spec import DDR4Spec
from repro.errors import ProtocolError


class DDR4Controller:
    """Command-sequence generator for one bus master."""

    def __init__(self, name: str, spec: DDR4Spec, bus: SharedBus) -> None:
        self.name = name
        self.spec = spec
        self.bus = bus
        # Controller-side belief of each bank's open row (-1 = closed).
        self.open_rows: dict[int, int] = {}
        self._bank_act_ps: dict[int, int] = {}
        self._bank_write_end_ps: dict[int, int] = {}
        self._recent_acts: list[int] = []     # tFAW pacing
        self.busy_until_ps = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- public transfer API -------------------------------------------------------

    def read(self, addr: int, nbytes: int, start_ps: int) -> tuple[bytes, int]:
        """Read ``nbytes`` beginning at ``addr``; returns (data, end_ps).

        ``end_ps`` is the time the last data beat lands (tCL + burst after
        the final RD command).
        """
        self._check_alignment(addr, nbytes)
        t = max(start_ps, self.busy_until_ps)
        out = bytearray()
        last_cmd_ps = t
        for burst_addr in self._bursts(addr, nbytes):
            parts = self.bus.device.decode(burst_addr)
            t = self._prepare_row(parts, t)
            column = parts.column_byte // self.spec.burst_bytes
            data = self.bus.issue(self.name, Command(
                CommandKind.RD, bank=parts.bank, row=parts.row,
                column=column), t)
            out.extend(data or b"")
            last_cmd_ps = t
            t += self.spec.tccd_ps
        end_ps = last_cmd_ps + self.spec.tcl_ps + self.spec.burst_time_ps
        self.busy_until_ps = max(self.busy_until_ps, t)
        self.bytes_read += nbytes
        return bytes(out), end_ps

    def write(self, addr: int, data: bytes, start_ps: int) -> int:
        """Write ``data`` at ``addr``; returns the end-of-data time."""
        self._check_alignment(addr, len(data))
        t = max(start_ps, self.busy_until_ps)
        last_cmd_ps = t
        burst = self.spec.burst_bytes
        for i, burst_addr in enumerate(self._bursts(addr, len(data))):
            parts = self.bus.device.decode(burst_addr)
            t = self._prepare_row(parts, t)
            column = parts.column_byte // burst
            chunk = data[i * burst:(i + 1) * burst]
            self.bus.issue(self.name, Command(
                CommandKind.WR, bank=parts.bank, row=parts.row,
                column=column), t, data=chunk)
            self._bank_write_end_ps[parts.bank] = (
                t + self.spec.cwl_ps + self.spec.burst_time_ps)
            last_cmd_ps = t
            t += self.spec.tccd_ps
        end_ps = last_cmd_ps + self.spec.cwl_ps + self.spec.burst_time_ps
        self.busy_until_ps = max(self.busy_until_ps, t)
        self.bytes_written += len(data)
        return end_ps

    def precharge_all(self, start_ps: int) -> int:
        """Issue PREA (close every bank); returns completion time.

        tRAS of the most recent ACT still applies; the controller waits
        it out rather than violating it.
        """
        t = max(start_ps, self.busy_until_ps)
        t = max(t, self._earliest_prea(t))
        self.bus.issue(self.name, Command(CommandKind.PREA), t)
        self.open_rows.clear()
        self._bank_act_ps.clear()
        self._bank_write_end_ps.clear()
        end_ps = t + self.spec.trp_ps
        self.busy_until_ps = max(self.busy_until_ps, end_ps)
        return end_ps

    def refresh(self, start_ps: int) -> int:
        """Issue REF; banks must already be precharged (PREA first)."""
        t = max(start_ps, self.busy_until_ps)
        self.bus.issue(self.name, Command(CommandKind.REF), t)
        end_ps = t + self.spec.trfc_ps
        self.busy_until_ps = max(self.busy_until_ps, end_ps)
        return end_ps

    def forget_open_rows(self) -> None:
        """Drop the open-row book (after refresh closed everything)."""
        self.open_rows.clear()
        self._bank_act_ps.clear()
        self._bank_write_end_ps.clear()

    # -- internals ----------------------------------------------------------------------

    def _check_alignment(self, addr: int, nbytes: int) -> None:
        burst = self.spec.burst_bytes
        if addr % burst or nbytes % burst or nbytes == 0:
            raise ProtocolError(
                f"{self.name}: transfer must be whole bursts of {burst} B "
                f"(addr={addr:#x}, nbytes={nbytes})")

    def _bursts(self, addr: int, nbytes: int) -> list[int]:
        burst = self.spec.burst_bytes
        return [addr + i * burst for i in range(nbytes // burst)]

    def _earliest_prea(self, t: int) -> int:
        earliest = t
        for bank, act_ps in self._bank_act_ps.items():
            if self.open_rows.get(bank, -1) >= 0:
                earliest = max(earliest, act_ps + self.spec.tras_ps)
                write_end = self._bank_write_end_ps.get(bank)
                if write_end is not None:
                    earliest = max(earliest, write_end + self.spec.twr_ps)
        return earliest

    def _prepare_row(self, parts: AddressParts, t: int) -> int:
        """Ensure the burst's row is open; returns the command-issue time."""
        current = self.open_rows.get(parts.bank, -1)
        if current == parts.row:
            return t
        if current >= 0:
            act_ps = self._bank_act_ps.get(parts.bank, -10**18)
            pre_t = max(t, act_ps + self.spec.tras_ps)
            write_end = self._bank_write_end_ps.get(parts.bank)
            if write_end is not None:
                pre_t = max(pre_t, write_end + self.spec.twr_ps)
            self.bus.issue(self.name, Command(
                CommandKind.PRE, bank=parts.bank), pre_t)
            t = pre_t + self.spec.trp_ps
        # tFAW pacing: defer the fifth ACT of any rolling window.
        if len(self._recent_acts) == 4:
            t = max(t, self._recent_acts[0] + self.spec.tfaw_ps)
        self.bus.issue(self.name, Command(
            CommandKind.ACT, bank=parts.bank, row=parts.row), t)
        self._recent_acts.append(t)
        if len(self._recent_acts) > 4:
            self._recent_acts.pop(0)
        self.open_rows[parts.bank] = parts.row
        self._bank_act_ps[parts.bank] = t
        return t + self.spec.trcd_ps
