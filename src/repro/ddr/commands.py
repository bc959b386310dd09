"""DDR4 command set and CA-pin state encoding.

The refresh detector inside the NVMC works on raw command/address pin
states, not on abstract command objects (§IV-A): the FPGA taps six CA
signals — CKE, CS_n, ACT_n, RAS_n, CAS_n, WE_n — runs them through 1:8
deserializers, and pattern-matches the REFRESH encoding

    CKE=H, CS_n=L, ACT_n=H, RAS_n=L, CAS_n=L, WE_n=H.

This module provides the full truth table so the detector can be tested
against *every* DDR4 command, including the self-refresh variants (SRE
and SRX) that must *not* be classified as a normal refresh.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ProtocolError

H = True   # logic high
L = False  # logic low


class CommandKind(enum.Enum):
    """DDR4 command kinds the simulator models."""

    DES = "deselect"           # chip not selected; bus idle slot
    NOP = "nop"
    ACT = "activate"           # open a row
    RD = "read"
    RDA = "read_autopre"
    WR = "write"
    WRA = "write_autopre"
    PRE = "precharge"          # close one bank
    PREA = "precharge_all"     # close all banks (required before REF)
    REF = "refresh"
    SRE = "self_refresh_entry"
    SRX = "self_refresh_exit"
    MRS = "mode_register_set"
    ZQCL = "zq_calibration"


@dataclass(frozen=True)
class CAState:
    """Sampled logic levels of the six CA pins the NVMC monitors.

    ``cke_prev`` carries the previous clock's CKE level because the
    self-refresh commands are defined by CKE *transitions*: SRE is the
    REF encoding with CKE falling, SRX is DESELECT with CKE rising.
    """

    cke: bool
    cs_n: bool
    act_n: bool
    ras_n: bool
    cas_n: bool
    we_n: bool
    cke_prev: bool = True

    def pins(self) -> tuple[bool, bool, bool, bool, bool, bool]:
        """The six monitored pins in board-routing order (§IV-A)."""
        return (self.cke, self.cs_n, self.act_n,
                self.ras_n, self.cas_n, self.we_n)


#: Truth table: kind -> (cke, cs_n, act_n, ras_n, cas_n, we_n, cke_prev).
#: For ACT, the RAS/CAS/WE pins are re-purposed as row-address bits; the
#: simulator encodes them high (their level is address-dependent on real
#: silicon, but ACT is unambiguous via ACT_n=L regardless).
_ENCODINGS: dict[CommandKind, tuple[bool, ...]] = {
    CommandKind.DES:  (H, H, H, H, H, H, H),
    CommandKind.NOP:  (H, L, H, H, H, H, H),
    CommandKind.ACT:  (H, L, L, H, H, H, H),
    CommandKind.RD:   (H, L, H, H, L, H, H),
    CommandKind.RDA:  (H, L, H, H, L, H, H),
    CommandKind.WR:   (H, L, H, H, L, L, H),
    CommandKind.WRA:  (H, L, H, H, L, L, H),
    CommandKind.PRE:  (H, L, H, L, H, L, H),
    CommandKind.PREA: (H, L, H, L, H, L, H),
    CommandKind.REF:  (H, L, H, L, L, H, H),
    CommandKind.MRS:  (H, L, H, L, L, L, H),
    CommandKind.ZQCL: (H, L, H, H, H, L, H),
    # Self-refresh entry: REF pin state with CKE driven low this cycle.
    CommandKind.SRE:  (L, L, H, L, L, H, H),
    # Self-refresh exit: deselect with CKE rising.
    CommandKind.SRX:  (H, H, H, H, H, H, L),
}


#: One shared pin state per kind: ``CAState`` is frozen, so every command
#: of a kind can hand out the same instance.
_STATES: dict[CommandKind, CAState] = {
    kind: CAState(*levels) for kind, levels in _ENCODINGS.items()}


def encode(kind: CommandKind) -> CAState:
    """CA pin state for a command kind (one shared instance per kind)."""
    return _STATES[kind]


def is_refresh_state(state: CAState) -> bool:
    """True iff the pin state is a *normal* REFRESH (the paper's match).

    The predicate the RTL refresh detector implements: CKE, ACT_n and
    WE_n high, the other monitored pins low — and CKE steady (a falling
    CKE with the same other pins is self-refresh *entry*, which begins a
    window of unknown length and must not trigger a device transfer).
    """
    return (state.cke is H and state.cke_prev is H and state.cs_n is L
            and state.act_n is H and state.ras_n is L
            and state.cas_n is L and state.we_n is H)


def classify(state: CAState) -> CommandKind:
    """Decode a pin state back to a command kind.

    RD/RDA, WR/WRA and PRE/PREA pairs share pin states (they differ only
    in address bit A10, which the detector does not monitor); decoding
    returns the non-auto-precharge member of each pair.  Raises
    :class:`ProtocolError` on an encoding that matches nothing.
    """
    if state.cke is L and state.cke_prev is L:
        # CKE held low: the device is in power-down/self-refresh and the
        # command pins are don't-care — the slot registers as deselect.
        return CommandKind.DES
    if state.cs_n is H:
        if state.cke is H and state.cke_prev is L:
            return CommandKind.SRX
        return CommandKind.DES
    if state.cke is L and state.cke_prev is H:
        if (state.act_n, state.ras_n, state.cas_n, state.we_n) == (H, L, L, H):
            return CommandKind.SRE
        raise ProtocolError(f"CKE fell with non-refresh pin state: {state}")
    if state.cke is H and state.cke_prev is L:
        # Power-down/self-refresh exit requires DESELECT (CS_n high) on
        # the CKE rising edge; any selected command here is illegal.
        raise ProtocolError(f"CKE rose without deselect: {state}")
    if state.act_n is L:
        return CommandKind.ACT
    key = (state.ras_n, state.cas_n, state.we_n)
    table = {
        (H, H, H): CommandKind.NOP,
        (H, L, H): CommandKind.RD,
        (H, L, L): CommandKind.WR,
        (L, H, L): CommandKind.PRE,
        (L, L, H): CommandKind.REF,
        (L, L, L): CommandKind.MRS,
        (H, H, L): CommandKind.ZQCL,
    }
    if key not in table:
        raise ProtocolError(f"unrecognised CA state: {state}")
    return table[key]


@dataclass(frozen=True)
class Command:
    """A decoded DDR4 command with its address payload.

    ``bank`` is a flat bank index (group * banks_per_group + bank),
    ``row``/``column`` are used by ACT/RD/WR respectively.  Non-addressed
    commands (REF, PREA, ...) leave them at -1.
    """

    kind: CommandKind
    bank: int = -1
    row: int = -1
    column: int = -1

    @property
    def ca_state(self) -> CAState:
        """The pin state this command puts on the CA bus."""
        return encode(self.kind)

    def __str__(self) -> str:
        parts = [self.kind.name]
        if self.bank >= 0:
            parts.append(f"b{self.bank}")
        if self.row >= 0:
            parts.append(f"r{self.row}")
        if self.column >= 0:
            parts.append(f"c{self.column}")
        return " ".join(parts)


#: Commands that transfer data on the DQ bus.
DATA_COMMANDS = frozenset({CommandKind.RD, CommandKind.RDA,
                           CommandKind.WR, CommandKind.WRA})

#: Commands that require *all* banks idle when issued.
ALL_BANK_COMMANDS = frozenset({CommandKind.REF, CommandKind.SRE})
