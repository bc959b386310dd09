"""Exception hierarchy for the NVDIMM-C simulator.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch simulator problems without masking programming errors.

Stable error codes
    Each class carries a ``code`` (``"REPRO-Exyz"``) that is part of the
    public contract: fault-campaign reports, logs, and tests key on the
    code, never on the message text, so messages can be improved without
    breaking consumers.  Codes are allocated in decades per subsystem
    (E01x simulation, E02x protocol, E03x media, E04x FTL, E05x device,
    E06x kernel, E07x configuration, E08x fault injection, E09x fleet)
    and are never reused once published.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""

    #: Stable machine-readable identity of the error class.
    code: str = "REPRO-E000"


class SimulationError(ReproError):
    """The discrete-event engine was driven into an invalid state."""

    code = "REPRO-E010"


class ProtocolError(ReproError):
    """A DDR4/NAND protocol rule was violated (illegal command sequence)."""

    code = "REPRO-E020"


class BusCollisionError(ProtocolError):
    """Two bus masters drove the shared CA/DQ bus in overlapping slots.

    This is the failure mode the paper's tRFC serialisation mechanism
    exists to prevent (Fig. 2a cases C1/C2).  The simulator raises it when
    collision detection is enabled and the rule is broken.
    """

    code = "REPRO-E021"

    def __init__(self, message: str, time_ps: int = -1,
                 masters: tuple[str, str] | None = None) -> None:
        super().__init__(message)
        self.time_ps = time_ps
        self.masters = masters


class TimingViolationError(ProtocolError):
    """A command was issued before a JEDEC timing window elapsed."""

    code = "REPRO-E022"


class MediaError(ReproError):
    """A NAND/NVM media operation failed (bad block, uncorrectable ECC)."""

    code = "REPRO-E030"


class UncorrectableError(MediaError):
    """ECC decode failed: more raw bit errors than the code can correct."""

    code = "REPRO-E031"


class DegradedModeError(MediaError):
    """The device entered read-only degraded mode after repeated media
    failures; writes are refused until the module is replaced.

    ``reason`` is the machine-readable cause (``"bad-block-budget"``,
    ``"remap-exhausted"``, ``"space-exhausted"``, ...) that health
    reports and tests key on; the message text stays human-facing.
    """

    code = "REPRO-E032"

    def __init__(self, message: str, reason: str = "degraded") -> None:
        super().__init__(message)
        self.reason = reason


class FailStopError(DegradedModeError):
    """The device can no longer vouch for its data (an unrecoverable
    read while already degraded): every host operation is refused."""

    code = "REPRO-E033"

    def __init__(self, message: str, reason: str = "fail-stop") -> None:
        super().__init__(message, reason=reason)


class FTLError(ReproError):
    """The flash translation layer hit an invariant violation."""

    code = "REPRO-E040"


class DeviceError(ReproError):
    """NVDIMM-C device-level failure (CP protocol, power, configuration)."""

    code = "REPRO-E050"


class CPProtocolError(DeviceError):
    """Malformed or out-of-order communication-protocol exchange."""

    code = "REPRO-E051"


class CPTimeoutError(CPProtocolError):
    """The driver gave up on a CP exchange: no matching acknowledgement
    (or no clean status) arrived within the retry/backoff budget."""

    code = "REPRO-E052"

    def __init__(self, message: str, attempts: int = 0,
                 last_status: int | None = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_status = last_status


class KernelError(ReproError):
    """Software-stack failure (driver, filesystem, memory reservation)."""

    code = "REPRO-E060"


class ConfigError(ReproError, ValueError):
    """Inconsistent or unsupported system configuration.

    Also a :class:`ValueError` so pre-taxonomy callers that validated
    constructor arguments with ``except ValueError`` keep working.
    """

    code = "REPRO-E070"


class FaultInjectionError(ReproError):
    """A fault-injection campaign was mis-specified (unknown injector,
    bad schedule) — a harness bug, never an injected fault itself."""

    code = "REPRO-E080"


class FleetError(ReproError):
    """A fleet-level serving failure (stuck shard worker, unroutable
    failover) — the front end cannot merge a complete, deterministic
    run.  Distinct from per-module errors: the module may be fine while
    the fleet harness around it is not."""

    code = "REPRO-E090"


class PowerLossInterrupt(ReproError):
    """Simulated power loss fired at a scheduled instant.

    Control flow, not a bug: a :class:`~repro.faults.clock.FaultClock`
    raises it from an injection hook site (mid-DMA, mid-writeback,
    mid-GC, engine dispatch) to abandon in-flight work exactly the way
    a real power cut would.  Campaign code catches it and runs the
    battery-backed drain (:mod:`repro.device.power`).
    """

    code = "REPRO-E081"

    def __init__(self, message: str, time_ps: int = -1,
                 site: str = "?") -> None:
        super().__init__(message)
        self.time_ps = time_ps
        self.site = site
