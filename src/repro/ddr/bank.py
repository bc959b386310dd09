"""Per-bank DRAM state machine with JEDEC timing enforcement.

Each bank tracks its open row and the timestamps of the last state
transitions so that every incoming command can be checked against the
relevant timing windows (tRCD, tRP, tRAS, tWR, tCCD).  Violations raise
:class:`~repro.errors.TimingViolationError`; illegal sequences (e.g.
READ to a closed bank — the paper's Fig. 2a case C2) raise
:class:`~repro.errors.ProtocolError`.

The model is conservative rather than cycle-exact: it enforces the
constraints the shared-bus mechanism can break, which is what the
reproduction needs to demonstrate.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.ddr.spec import DDR4Spec
from repro.errors import ProtocolError, TimingViolationError


class BankState(enum.Enum):
    """Lifecycle of a DRAM bank."""

    IDLE = "idle"                 # precharged, no open row
    ACTIVE = "active"             # a row is open in the sense amps
    REFRESHING = "refreshing"     # inside tRFC (all-bank, device-wide)


# Member aliases for identity tests (why: see repro.ddr.commands).
_IDLE = BankState.IDLE
_ACTIVE = BankState.ACTIVE
_REFRESHING = BankState.REFRESHING

NEVER = -10**18  # sentinel "long ago" timestamp


@dataclass
class Bank:
    """One bank: open-row bookkeeping plus last-event timestamps."""

    index: int
    spec: DDR4Spec
    state: BankState = BankState.IDLE
    open_row: int = -1
    last_act_ps: int = NEVER
    last_pre_ps: int = NEVER
    last_rdwr_ps: int = NEVER
    last_write_end_ps: int = NEVER
    stats: dict[str, int] = field(default_factory=lambda: {
        "activates": 0, "reads": 0, "writes": 0, "precharges": 0,
    })

    # -- command legality ---------------------------------------------------

    def activate(self, row: int, now_ps: int) -> None:
        """Open ``row``; bank must be idle and past tRP since precharge."""
        if self.state is _REFRESHING:
            raise ProtocolError(
                f"bank {self.index}: ACT during refresh (tRFC window)")
        if self.state is _ACTIVE:
            raise ProtocolError(
                f"bank {self.index}: ACT while row {self.open_row} is open")
        if now_ps < self.last_pre_ps + self.spec.trp_ps:
            raise TimingViolationError(
                f"bank {self.index}: ACT violates tRP "
                f"({now_ps} < {self.last_pre_ps + self.spec.trp_ps})")
        self.state = _ACTIVE
        self.open_row = row
        self.last_act_ps = now_ps
        self.stats["activates"] += 1

    def read(self, row: int, now_ps: int) -> None:
        """Column read; the addressed row must be the open one.

        A READ to a row that another master just precharged is exactly
        case C2 of Fig. 2a — it surfaces here as a ProtocolError.
        """
        self._check_column_access(row, now_ps, "RD")
        self.last_rdwr_ps = now_ps
        self.stats["reads"] += 1

    def write(self, row: int, now_ps: int) -> None:
        """Column write; records write-recovery end for the tWR check."""
        self._check_column_access(row, now_ps, "WR")
        self.last_rdwr_ps = now_ps
        data_end = now_ps + self.spec.cwl_ps + self.spec.burst_time_ps
        self.last_write_end_ps = data_end
        self.stats["writes"] += 1

    def precharge(self, now_ps: int) -> None:
        """Close the open row (no-op when already idle, as on silicon)."""
        if self.state is _REFRESHING:
            raise ProtocolError(
                f"bank {self.index}: PRE during refresh (tRFC window)")
        if self.state is _IDLE:
            return
        if now_ps < self.last_act_ps + self.spec.tras_ps:
            raise TimingViolationError(
                f"bank {self.index}: PRE violates tRAS")
        if now_ps < self.last_write_end_ps + self.spec.twr_ps:
            raise TimingViolationError(
                f"bank {self.index}: PRE violates tWR (write recovery)")
        self.state = _IDLE
        self.open_row = -1
        self.last_pre_ps = now_ps
        self.stats["precharges"] += 1

    def auto_precharge(self, now_ps: int) -> None:
        """RDA/WRA: the bank closes itself behind the burst (not counted
        in ``precharges``)."""
        self.state = _IDLE
        self.open_row = -1
        self.last_pre_ps = now_ps

    def begin_refresh(self, now_ps: int) -> None:
        """Enter the refresh cycle; requires the bank to be precharged."""
        Bank.begin_refresh_all((self,), now_ps)

    def end_refresh(self, now_ps: int) -> None:
        """Leave the refresh cycle (called tRFC_device after REF)."""
        if self.state is not _REFRESHING:
            raise ProtocolError(f"bank {self.index}: end_refresh while idle")
        Bank.end_refresh_all((self,), now_ps)

    # -- all-bank transitions: one loop per command ---------------------------

    @staticmethod
    def precharge_all(banks: Sequence[Bank], now_ps: int) -> None:
        """PREA: precharge each bank in order.

        An idle bank is skipped without a call, as :meth:`precharge`
        would return at once for it; a refreshing one still raises.
        """
        for bank in banks:
            if bank.state is not _IDLE:
                bank.precharge(now_ps)

    @staticmethod
    def begin_refresh_all(banks: Sequence[Bank], now_ps: int) -> None:
        """REF: every bank enters the refresh cycle, in order.

        DDR4 has no per-bank refresh, so the memory controller must have
        issued PREA first (§III-B) — an ACT-to-REF here is a protocol
        error the simulator reports.  The banks before the open one are
        left refreshing.
        """
        for bank in banks:
            if bank.state is _ACTIVE:
                raise ProtocolError(
                    f"bank {bank.index}: REF while row {bank.open_row} open "
                    "(controller must PREA before REFRESH)")
            bank.state = _REFRESHING

    @staticmethod
    def end_refresh_all(banks: Sequence[Bank], now_ps: int) -> None:
        """Every refreshing bank leaves the refresh cycle; others stay.

        JEDEC allows ACT immediately once tRFC elapses (the precharge is
        internal to the refresh), so the tRP reference is backdated.
        """
        for bank in banks:
            if bank.state is _REFRESHING:
                bank.state = _IDLE
                bank.last_pre_ps = now_ps - bank.spec.trp_ps

    # -- helpers -------------------------------------------------------------

    def _check_column_access(self, row: int, now_ps: int, what: str) -> None:
        if self.state is _REFRESHING:
            raise ProtocolError(
                f"bank {self.index}: {what} during refresh (tRFC window)")
        if self.state is not _ACTIVE:
            raise ProtocolError(
                f"bank {self.index}: {what} to precharged bank "
                "(row was closed under the requester — Fig. 2a C2)")
        if self.open_row != row:
            raise ProtocolError(
                f"bank {self.index}: {what} row {row} but row "
                f"{self.open_row} is open")
        if now_ps < self.last_act_ps + self.spec.trcd_ps:
            raise TimingViolationError(
                f"bank {self.index}: {what} violates tRCD")
        if now_ps < self.last_rdwr_ps + self.spec.tccd_ps:
            raise TimingViolationError(
                f"bank {self.index}: {what} violates tCCD")
