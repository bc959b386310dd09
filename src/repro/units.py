"""Time and size units for the NVDIMM-C simulator.

The whole simulator keeps time as an integer number of **picoseconds**.
DDR4 clock periods are fractions of a nanosecond (e.g. 1.25 ns at
DDR4-1600, 0.833 ns at DDR4-2400), so picoseconds keep every timing
parameter exact and avoid floating-point drift in the event queue.

Sizes are plain integers counted in bytes.
"""

from __future__ import annotations

# --- time ---------------------------------------------------------------

PS = 1
NS = 1_000 * PS
US = 1_000 * NS
MS = 1_000 * US
SEC = 1_000 * MS


def ns(value: float) -> int:
    """Convert a value in nanoseconds to integer picoseconds."""
    return round(value * NS)


def us(value: float) -> int:
    """Convert a value in microseconds to integer picoseconds."""
    return round(value * US)


def ms(value: float) -> int:
    """Convert a value in milliseconds to integer picoseconds."""
    return round(value * MS)


def sec(value: float) -> int:
    """Convert a value in seconds to integer picoseconds."""
    return round(value * SEC)


def to_ns(picoseconds: int) -> float:
    """Convert integer picoseconds to float nanoseconds."""
    return picoseconds / NS


def format_time(picoseconds: int) -> str:
    """Render a simulation time with an auto-selected unit.

    >>> format_time(1_250_000)
    '1.250 us'
    """
    value = abs(picoseconds)
    if value >= SEC:
        return f"{picoseconds / SEC:.3f} s"
    if value >= MS:
        return f"{picoseconds / MS:.3f} ms"
    if value >= US:
        return f"{picoseconds / US:.3f} us"
    if value >= NS:
        return f"{picoseconds / NS:.3f} ns"
    return f"{picoseconds} ps"


# --- sizes ---------------------------------------------------------------

B = 1
KB = 1024 * B
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

CACHELINE = 64 * B
PAGE_4K = 4 * KB


def kb(value: float) -> int:
    """Convert a value in KiB to integer bytes."""
    return round(value * KB)


def mb(value: float) -> int:
    """Convert a value in MiB to integer bytes."""
    return round(value * MB)


def gb(value: float) -> int:
    """Convert a value in GiB to integer bytes."""
    return round(value * GB)


def format_size(num_bytes: int) -> str:
    """Render a byte count with an auto-selected binary unit.

    >>> format_size(4096)
    '4.0 KiB'
    """
    value = abs(num_bytes)
    if value >= TB:
        return f"{num_bytes / TB:.1f} TiB"
    if value >= GB:
        return f"{num_bytes / GB:.1f} GiB"
    if value >= MB:
        return f"{num_bytes / MB:.1f} MiB"
    if value >= KB:
        return f"{num_bytes / KB:.1f} KiB"
    return f"{num_bytes} B"


# --- rates ---------------------------------------------------------------


def bandwidth_mb_s(num_bytes: int, picoseconds: int) -> float:
    """Bandwidth in MB/s (decimal MB, as the paper reports) over a span."""
    if picoseconds <= 0:
        return 0.0
    return (num_bytes / 1e6) / (picoseconds / SEC)


def iops(num_ops: int, picoseconds: int) -> float:
    """Operations per second over a span of simulated time."""
    if picoseconds <= 0:
        return 0.0
    return num_ops / (picoseconds / SEC)
