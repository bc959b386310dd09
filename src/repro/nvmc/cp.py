"""The communication-protocol (CP) area between the nvdc driver and NVMC.

"The first physical page of the reserved memory is used as a
communication protocol (CP) area ... a command is 64b-wide data and
stored in a single cacheline.  Each command includes four bit-fields:
Phase, Opcode, DRAM_Slot_ID, and NAND_Page_ID" (§IV-C).

Field layout (64-bit little-endian word):

    [63:60] Phase      — toggles to mark a *new* command
    [59:56] Opcode     — cachefill / writeback / merged / nop
    [55:28] DRAM_Slot_ID  (28 bits: slots in the reserved region)
    [27:0]  NAND_Page_ID  (28 bits: 4 KB pages of the 120 GB device)

The acknowledgement region is the next cacheline; the device writes the
completed command's phase + a status code there.  The paper's PoC
supports exactly one in-flight command ("multi-command is not
supported"); the model implements a configurable queue depth so the
§VII-C future-work ablation can quantify what depth > 1 buys.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import CPProtocolError
from repro.units import CACHELINE, PAGE_4K


class Opcode(enum.IntEnum):
    """CP operations."""

    NOP = 0
    CACHEFILL = 1       # NAND page -> DRAM slot
    WRITEBACK = 2       # DRAM slot -> NAND page
    MERGED = 3          # independent writeback + cachefill in one command
                        # (§VII-C future-work item 4)
    FLUSH_METADATA = 4  # persist the mapping metadata area


class Phase(enum.IntEnum):
    """Phase bit values; toggling marks a fresh command."""

    EVEN = 0
    ODD = 1


_PHASE_SHIFT = 60
_OPCODE_SHIFT = 56
_SLOT_SHIFT = 28
_SLOT_MASK = (1 << 28) - 1
_PAGE_MASK = (1 << 28) - 1

#: Trace-field names indexed by the enum value (``Enum.name`` is a
#: descriptor call per read; the CP exchange fills several per op).
OPCODE_NAMES: tuple[str, ...] = tuple(Opcode(value).name
                                      for value in range(len(Opcode)))
PHASE_NAMES: tuple[str, ...] = tuple(Phase(value).name
                                     for value in range(len(Phase)))


def _phase(nibble: int) -> Phase:
    """The :class:`Phase` of a decoded 4-bit phase field."""
    try:
        return Phase(nibble)
    except ValueError as exc:
        raise CPProtocolError(f"unknown phase {nibble}") from exc


class CPCommand(NamedTuple):
    """A decoded CP command."""

    phase: Phase
    opcode: Opcode
    dram_slot: int = 0
    nand_page: int = 0
    # MERGED carries a second (writeback) pair in the adjacent word on
    # real hardware; the model carries it inline.
    wb_dram_slot: int = 0
    wb_nand_page: int = 0

    def encode(self) -> int:
        """Pack into the 64-bit CP word."""
        if not 0 <= self.dram_slot <= _SLOT_MASK:
            raise CPProtocolError("DRAM_Slot_ID out of field: "
                                  f"{self.dram_slot}")
        if not 0 <= self.nand_page <= _PAGE_MASK:
            raise CPProtocolError("NAND_Page_ID out of field: "
                                  f"{self.nand_page}")
        return ((int(self.phase) << _PHASE_SHIFT)
                | (int(self.opcode) << _OPCODE_SHIFT)
                | (self.dram_slot << _SLOT_SHIFT)
                | self.nand_page)

    @staticmethod
    def decode(word: int) -> "CPCommand":
        """Unpack a 64-bit CP word."""
        phase = _phase((word >> _PHASE_SHIFT) & 0xF)
        opcode_bits = (word >> _OPCODE_SHIFT) & 0xF
        try:
            opcode = Opcode(opcode_bits)
        except ValueError as exc:
            raise CPProtocolError(f"unknown opcode {opcode_bits}") from exc
        return CPCommand(phase=phase, opcode=opcode,
                         dram_slot=(word >> _SLOT_SHIFT) & _SLOT_MASK,
                         nand_page=word & _PAGE_MASK)


def ack_word(phase: int, status: int) -> int:
    """The ack-area word publishing ``status`` for a ``phase`` command."""
    return (phase << 4) | (status & 0xF)


class CPAck(NamedTuple):
    """Device acknowledgement: echoes the phase, carries a status."""

    phase: Phase
    status: int = 0          # 0 = OK

    OK = 0
    MEDIA_ERROR = 1
    #: The device polled a word it could not decode (corrupted opcode
    #: bits); no operation was performed.  The driver re-issues.
    DECODE_ERROR = 2
    #: The device refused the operation because it is in a degraded
    #: mode (read-only or fail-stop).  Retrying is pointless; the
    #: driver consults the health monitor for the reason.
    DEGRADED = 3

    def encode(self) -> int:
        return ack_word(self.phase, self.status)

    @staticmethod
    def decode(word: int) -> "CPAck":
        return CPAck(phase=_phase((word >> 4) & 0xF), status=word & 0xF)


#: Every well-formed ack word (phase bit, 4-bit status) decoded once:
#: ``poll_ack`` hands these out instead of decoding per poll.
_ACKS: tuple[CPAck, ...] = tuple(CPAck.decode(word)
                                 for word in range(len(Phase) << 4))


class CPArea:
    """The 4 KB CP page: command slots + acknowledgement slots.

    Slot ``i``'s command lives at cacheline ``i``; its ack lives at
    cacheline ``queue_depth + i``.  The PoC uses ``queue_depth=1`` and
    "does not use the remaining memory space of 4 KB" (§VII-C).
    """

    def __init__(self, queue_depth: int = 1) -> None:
        if queue_depth < 1 or queue_depth * 2 * CACHELINE > PAGE_4K:
            raise CPProtocolError(
                f"queue depth {queue_depth} does not fit the 4 KB CP area")
        self.queue_depth = queue_depth
        self._commands: list[int] = [0] * queue_depth
        # None = never acknowledged; real hardware reserves a status code.
        self._acks: list[int | None] = [None] * queue_depth
        self.commands_posted = 0

    def post(self, slot: int, command: CPCommand) -> None:
        """Driver side: write a command word (after cache flush)."""
        self._check_slot(slot)
        # Stored words all came from ``encode``: their phase bits are
        # the previous command's phase.
        previous = self._commands[slot]
        if previous and previous >> _PHASE_SHIFT == command.phase:
            raise CPProtocolError(
                "phase did not toggle; device cannot see a new command")
        self._commands[slot] = command.encode()
        self.commands_posted += 1

    def poll_command(self, slot: int, last_phase: Phase | None) -> \
            CPCommand | None:
        """Device side: a new command if the phase toggled, else None."""
        self._check_slot(slot)
        word = self._commands[slot]
        if word == 0:
            return None
        command = CPCommand.decode(word)
        if last_phase is not None and command.phase == last_phase:
            return None
        return command

    def ack(self, slot: int, ack: CPAck) -> None:
        """Device side: publish completion status."""
        self.publish_ack(slot, ack.encode())

    def publish_ack(self, slot: int, word: int) -> None:
        """Device side: write an encoded ack word (see :func:`ack_word`)."""
        self._check_slot(slot)
        self._acks[slot] = word

    def clear_ack(self, slot: int) -> None:
        """Driver side: poison the ack word before re-posting a command.

        The phase field is one bit, so the ack of command N-1 carries the
        same phase as command N+1; a driver that re-issues after a lost
        ack must clear the ack area first or a stale ack is
        indistinguishable from a fresh one (the ABA hazard of §IV-C's
        minimal mailbox).
        """
        self._check_slot(slot)
        self._acks[slot] = None

    def poll_ack(self, slot: int, phase: Phase) -> CPAck | None:
        """Driver side: the matching ack once the device completed."""
        self._check_slot(slot)
        word = self._acks[slot]
        if word is None:
            return None
        decoded = (_ACKS[word] if 0 <= word < len(_ACKS)
                   else CPAck.decode(word))
        if decoded.phase != phase:
            return None
        return decoded

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.queue_depth:
            raise CPProtocolError(
                f"CP slot {slot} out of range (depth {self.queue_depth})")
