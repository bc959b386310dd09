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
from repro.ddr.spec import DDR4Spec
from repro.errors import ProtocolError

# Member aliases: every burst builds a command (see repro.ddr.commands).
_RD = CommandKind.RD
_WR = CommandKind.WR
_ACT = CommandKind.ACT
_PRE = CommandKind.PRE


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
        the final RD command).  Each burst's address is split once.
        """
        self._check_alignment(addr, nbytes)
        spec = self.spec
        burst = spec.burst_bytes
        split = self.bus.device._split
        issue = self.bus.issue
        t = max(start_ps, self.busy_until_ps)
        out = bytearray()
        last_cmd_ps = t
        for burst_addr in range(addr, addr + nbytes, burst):
            (bank, row), column_byte = split(burst_addr)
            t = self._prepare_row(bank, row, t)
            data = issue(self.name, Command(_RD, bank, row,
                                            column_byte // burst), t)
            out.extend(data or b"")
            last_cmd_ps = t
            t += spec.tccd_ps
        end_ps = last_cmd_ps + spec.tcl_ps + spec.burst_time_ps
        self.busy_until_ps = max(self.busy_until_ps, t)
        self.bytes_read += nbytes
        return bytes(out), end_ps

    def write(self, addr: int, data: bytes, start_ps: int) -> int:
        """Write ``data`` at ``addr``; returns the end-of-data time."""
        self._check_alignment(addr, len(data))
        spec = self.spec
        burst = spec.burst_bytes
        split = self.bus.device._split
        issue = self.bus.issue
        t = max(start_ps, self.busy_until_ps)
        last_cmd_ps = t
        for offset in range(0, len(data), burst):
            (bank, row), column_byte = split(addr + offset)
            t = self._prepare_row(bank, row, t)
            issue(self.name, Command(_WR, bank, row, column_byte // burst), t,
                  data=data[offset:offset + burst])
            self._bank_write_end_ps[bank] = (
                t + spec.cwl_ps + spec.burst_time_ps)
            last_cmd_ps = t
            t += spec.tccd_ps
        end_ps = last_cmd_ps + spec.cwl_ps + spec.burst_time_ps
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

    def _earliest_prea(self, t: int) -> int:
        earliest = t
        for bank, act_ps in self._bank_act_ps.items():
            if self.open_rows.get(bank, -1) >= 0:
                earliest = max(earliest, act_ps + self.spec.tras_ps)
                write_end = self._bank_write_end_ps.get(bank)
                if write_end is not None:
                    earliest = max(earliest, write_end + self.spec.twr_ps)
        return earliest

    def _prepare_row(self, bank: int, row: int, t: int) -> int:
        """Ensure ``row`` is open in ``bank``; returns the command-issue
        time."""
        current = self.open_rows.get(bank, -1)
        if current == row:
            return t
        if current >= 0:
            act_ps = self._bank_act_ps.get(bank, -10**18)
            pre_t = max(t, act_ps + self.spec.tras_ps)
            write_end = self._bank_write_end_ps.get(bank)
            if write_end is not None:
                pre_t = max(pre_t, write_end + self.spec.twr_ps)
            self.bus.issue(self.name, Command(_PRE, bank), pre_t)
            t = pre_t + self.spec.trp_ps
        # tFAW pacing: defer the fifth ACT of any rolling window.
        if len(self._recent_acts) == 4:
            t = max(t, self._recent_acts[0] + self.spec.tfaw_ps)
        self.bus.issue(self.name, Command(_ACT, bank, row), t)
        self._recent_acts.append(t)
        if len(self._recent_acts) > 4:
            self._recent_acts.pop(0)
        self.open_rows[bank] = row
        self._bank_act_ps[bank] = t
        return t + self.spec.trcd_ps
