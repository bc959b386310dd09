"""A DRAM device: address decode, banks, data store, refresh machinery.

The device is *passive*: bus masters (the host iMC or the NVMC's DDR4
controller) issue :class:`~repro.ddr.commands.Command` objects to it via
the shared bus, and the device validates them against its bank state
machines, moves data, and tracks refresh progress.

Data is stored sparsely — a ``dict`` of row buffers allocated on first
write — so a 16 GB DRAM cache costs memory proportional to its touched
footprint only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ddr.bank import Bank, BankState
from repro.ddr.commands import Command, CommandKind
from repro.ddr.spec import DDR4Spec
from repro.errors import ProtocolError, TimingViolationError
from repro.sim.snapshot import SnapshotMixin

# Member aliases for identity tests (why: see repro.ddr.commands).
_WR = CommandKind.WR
_WRA = CommandKind.WRA
_ACT = CommandKind.ACT
_RD = CommandKind.RD
_RDA = CommandKind.RDA
_PRE = CommandKind.PRE
_PREA = CommandKind.PREA
_REF = CommandKind.REF
_DES = CommandKind.DES
_NOP = CommandKind.NOP
_ZQCL = CommandKind.ZQCL
_MRS = CommandKind.MRS
_SRE = CommandKind.SRE
_SRX = CommandKind.SRX
_REFRESHING = BankState.REFRESHING


@dataclass
class AddressParts:
    """Decomposition of a flat byte address into DRAM coordinates."""

    bank: int
    row: int
    column_byte: int


class DRAMDevice(SnapshotMixin):
    """One rank of DDR4 DRAM behind the shared bus.

    Address mapping is row-interleaved across banks (consecutive rows of
    the flat address space rotate through banks), which is close enough
    to real channel interleave for the protocol experiments.
    """

    def __init__(self, spec: DDR4Spec, capacity_bytes: int | None = None,
                 name: str = "dram") -> None:
        spec.validate()
        self.spec = spec
        self.name = name
        self.banks = [Bank(i, spec) for i in range(spec.total_banks)]
        self.capacity_bytes = capacity_bytes or (
            spec.total_banks * spec.rows_per_bank * spec.row_size_bytes)
        self._rows: dict[tuple[int, int], bytearray] = {}
        # Rolling window of recent ACT times for the tFAW check
        # (rank-wide: at most four activates per tFAW, JESD79-4).
        self._act_history: list[int] = []
        self.refresh_row_counter = 0
        self.refreshes_done = 0
        self.in_self_refresh = False
        self.refresh_end_ps = -1

    # -- address mapping ------------------------------------------------------

    def decode(self, addr: int) -> AddressParts:
        """Flat byte address -> (bank, row, column byte offset)."""
        (bank, row), column_byte = self._split(addr)
        return AddressParts(bank=bank, row=row, column_byte=column_byte)

    def _split(self, addr: int) -> tuple[tuple[int, int], int]:
        """Flat byte address -> ((bank, row) row key, column byte)."""
        if not 0 <= addr < self.capacity_bytes:
            raise ProtocolError(
                f"{self.name}: address {addr:#x} out of range "
                f"(capacity {self.capacity_bytes:#x})")
        row_global, column_byte = divmod(addr, self.spec.row_size_bytes)
        banks = self.spec.total_banks
        return (row_global % banks, row_global // banks), column_byte

    # -- command execution -----------------------------------------------------

    def execute(self, command: Command, now_ps: int,
                data: bytes | None = None) -> bytes | None:
        """Apply a command; returns read data for RD/RDA.

        The caller (bus) has already arbitrated the command slot; this
        method enforces bank-level legality and timing.  Kinds are tested
        most frequent first: WR, ACT, RD, PRE, PREA, REF, then the rest.
        """
        kind, bank_index, row, column = command
        if self.in_self_refresh and kind is not _SRX:
            raise ProtocolError(
                f"{self.name}: {kind.name} while in self-refresh")

        if kind is _WR or kind is _WRA:
            burst = self.spec.burst_bytes
            if data is None or len(data) != burst:
                raise ProtocolError(
                    f"{self.name}: WR needs exactly one burst of "
                    f"{burst} bytes")
            bank = self.banks[bank_index]
            bank.write(row, now_ps)
            start = column * burst
            self._row_buffer(bank_index, row)[start:start + burst] = data
            if kind is _WRA:
                bank.auto_precharge(now_ps)
            return None
        if kind is _ACT:
            history = self._act_history
            if (len(history) == 4
                    and now_ps - history[0] < self.spec.tfaw_ps):
                raise TimingViolationError(
                    f"{self.name}: fifth ACT within tFAW "
                    f"({now_ps - history[0]} ps since the fourth-"
                    f"last, tFAW={self.spec.tfaw_ps} ps)")
            self.banks[bank_index].activate(row, now_ps)
            history.append(now_ps)
            if len(history) > 4:
                history.pop(0)
            return None
        if kind is _RD or kind is _RDA:
            bank = self.banks[bank_index]
            bank.read(row, now_ps)
            burst = self.spec.burst_bytes
            start = column * burst
            out = bytes(self._row_buffer(bank_index, row)[start:start + burst])
            if kind is _RDA:
                bank.auto_precharge(now_ps)
            return out
        if kind is _PRE:
            self.banks[bank_index].precharge(now_ps)
            return None
        if kind is _PREA:
            Bank.precharge_all(self.banks, now_ps)
            return None
        if kind is _REF:
            self._begin_refresh(now_ps)
            return None
        if kind is _DES or kind is _NOP or kind is _ZQCL or kind is _MRS:
            return None
        if kind is _SRE:
            self._begin_refresh(now_ps)
            self.in_self_refresh = True
            return None
        if kind is _SRX:
            self.in_self_refresh = False
            return None
        raise ProtocolError(f"{self.name}: unhandled command {command}")

    def _begin_refresh(self, now_ps: int) -> None:
        Bank.begin_refresh_all(self.banks, now_ps)
        self.refresh_end_ps = now_ps + self.spec.trfc_device_ps
        self.refresh_row_counter = (
            (self.refresh_row_counter + 1) % 8192)
        self.refreshes_done += 1

    def complete_refresh(self, now_ps: int) -> None:
        """Called tRFC_device after REF: banks become usable again."""
        Bank.end_refresh_all(self.banks, now_ps)

    def maybe_complete_refresh(self, now_ps: int) -> None:
        """Idempotent refresh completion for pull-style callers.

        Completion is timestamped at the actual refresh end, not at the
        (possibly much later) observation time, so post-refresh timing
        references are accurate.
        """
        if (self.refresh_end_ps >= 0 and now_ps >= self.refresh_end_ps
                and self.banks[0].state is _REFRESHING):
            self.complete_refresh(self.refresh_end_ps)

    # -- data store --------------------------------------------------------------

    def _row_buffer(self, bank: int, row: int) -> bytearray:
        key = (bank, row)
        buf = self._rows.get(key)
        if buf is None:
            buf = bytearray(self.spec.row_size_bytes)
            self._rows[key] = buf
        return buf

    # -- backdoor access (verification / power-failure drain) ---------------------

    def peek(self, addr: int, nbytes: int) -> bytes:
        """Read bytes bypassing the protocol (test/verification aid).

        One address split per row touched, so a range inside one row
        (a cache slot, a CPU-cache line) costs a single split.
        """
        row_size = self.spec.row_size_bytes
        pieces: list[bytes] = []
        while nbytes > 0:
            key, column = self._split(addr)
            chunk = min(nbytes, row_size - column)
            buf = self._rows.get(key)
            pieces.append(bytes(chunk) if buf is None
                          else bytes(buf[column:column + chunk]))
            addr += chunk
            nbytes -= chunk
        return b"".join(pieces)

    def poke(self, addr: int, data: bytes) -> None:
        """Write bytes bypassing the protocol (test/initialisation aid)."""
        row_size = self.spec.row_size_bytes
        offset = 0
        while offset < len(data):
            (bank, row), column = self._split(addr + offset)
            chunk = min(len(data) - offset, row_size - column)
            self._row_buffer(bank, row)[column:column + chunk] = (
                data[offset:offset + chunk])
            offset += chunk

    @property
    def touched_rows(self) -> int:
        """Number of row buffers materialised by writes."""
        return len(self._rows)
