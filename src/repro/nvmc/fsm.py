"""NVMC management FSM and the firmware-lag model.

The PoC's RTL is orchestrated by software on Cortex-A53 cores: "the
DDR4 controller is controlled by several software routines ...  decoding
the command in the CP area for the FPGA side is also performed by the
software ...  those make data movements and FSM transitions so laggy"
(§VII-C).  The measured effect: a writeback+cachefill pair takes 8.9
tREFI windows instead of the 6-window theoretical minimum.

:class:`FirmwareModel` captures that lag as a per-step processing delay:
after each window-bound action the firmware needs ``step_ps`` before it
can arm the next action, which makes it miss windows.  Setting
``step_ps = 0`` models the paper's ASIC (hardware-controlled) roadmap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.units import us


class NVMCState(enum.Enum):
    """Management FSM states (§IV-C control flow)."""

    IDLE = "idle"
    POLL_CP = "poll_cp"              # read the CP command word in a window
    NAND_READ = "nand_read"          # cachefill: fetch the NAND page
    DRAM_WRITE = "dram_write"        # cachefill: DMA page into DRAM slot
    DRAM_READ = "dram_read"          # writeback: DMA victim out of DRAM
    NAND_PROGRAM = "nand_program"    # writeback: program the NAND page
    ACK = "ack"                      # publish completion into the CP area


#: Legal FSM transitions; the tests assert the model never strays.
TRANSITIONS: dict[NVMCState, tuple[NVMCState, ...]] = {
    NVMCState.IDLE: (NVMCState.POLL_CP,),
    NVMCState.POLL_CP: (NVMCState.IDLE, NVMCState.NAND_READ,
                        NVMCState.DRAM_READ, NVMCState.ACK),
    # NAND_READ -> ACK is the media-failure abort: an uncorrectable page
    # skips the fill DMA and acks MEDIA_ERROR straight away.
    NVMCState.NAND_READ: (NVMCState.DRAM_WRITE, NVMCState.ACK),
    NVMCState.DRAM_WRITE: (NVMCState.ACK,),
    NVMCState.DRAM_READ: (NVMCState.NAND_PROGRAM, NVMCState.ACK),
    NVMCState.NAND_PROGRAM: (NVMCState.ACK, NVMCState.NAND_READ),
    NVMCState.ACK: (NVMCState.IDLE, NVMCState.POLL_CP),
}

#: :data:`TRANSITIONS` keyed by each source state's ``_name_``.  A
#: member key would hash through the Python-level ``Enum.__hash__`` on
#: every move; a str key hashes in C, once.
_SUCCESSORS: dict[str, tuple[NVMCState, ...]] = {
    state._name_: allowed for state, allowed in TRANSITIONS.items()}


@dataclass
class FirmwareModel:
    """Per-step firmware processing delay (the §VII-C lag).

    ``step_ps`` — time the Cortex-A53 software needs between completing
    one window-bound action and being ready to use the next window
    (command decode, DMA/FSM register programming, FTL bookkeeping).

    The default of 4.0 µs is calibrated so one writeback+cachefill pair
    (with the ~8 µs PoC NAND page read of §VII-C) occupies 8 tREFI
    windows at the stock 7.8 µs tREFI — close to the paper's measured
    8.9-window Uncached behaviour (§VII-B2; the fraction comes from
    run-to-run variance a deterministic model quantises away); see
    ``repro.perf.calibration``.  ``step_ps = 0`` models the §VII-C ASIC
    roadmap (hardware FSM).
    """

    step_ps: int = us(4.0)

    def ready_after(self, action_end_ps: int) -> int:
        """When the firmware can arm the next window-bound action."""
        return action_end_ps + self.step_ps


class FSMTracker:
    """Tracks and validates state transitions of one NVMC instance."""

    def __init__(self) -> None:
        self.state = NVMCState.IDLE

    def transition(self, new_state: NVMCState, time_ps: int) -> None:
        """Move to ``new_state`` at ``time_ps``, enforcing the table."""
        if new_state not in _SUCCESSORS[self.state._name_]:
            from repro.errors import DeviceError
            raise DeviceError(
                f"illegal FSM transition {self.state.name} -> "
                f"{new_state.name} at {time_ps} ps")
        self.state = new_state
