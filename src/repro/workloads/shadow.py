"""The shadowed host workload: committed pages read back as the truth.

``faults run``, ``soak`` and ``age run`` check NVDIMM-C's central
promise the same way.  They write 4 KB test pages through the nvdc
driver, keep a shadow of every page the driver committed, and read the
shadow back; a media error or a mismatch on that sweep is a lost page.
:class:`Leg` is that procedure over one driver, and :func:`payload` is
its test page, which ``crash`` and the fleet shards write too.

A leg counts into any record with the five fields of :class:`Counts`;
a soak round and an aging epoch log carry the same five.  A write the
driver refuses (:class:`~repro.errors.DegradedModeError`, fail-stop
included) is a refused write; any other :class:`~repro.errors.
MediaError` is a media error.  Neither reaches the shadow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import DegradedModeError, MediaError
from repro.units import PAGE_4K

#: Share of the mixed leg's steps that read back a committed page.
READ_FRACTION = 0.3


def payload(page: int, version: int) -> bytes:
    """The 4 KB test page: page and version, then a fill byte of both."""
    head = page.to_bytes(4, "little") + version.to_bytes(4, "little")
    return head + bytes([(page * 193 + version * 67) % 256]) * (PAGE_4K - 8)


@dataclass
class Counts:
    """What a leg counts, for a caller with no record of its own."""

    writes: int = 0
    reads: int = 0
    refused_writes: int = 0
    media_errors: int = 0
    data_loss: int = 0


class Leg:
    """The shadowed workload over one driver, collecting op latencies.

    Every step takes the host time and returns the time it ended; a
    failed operation leaves the time as it was and samples nothing.
    """

    def __init__(self, driver, footprint: int) -> None:
        self.driver = driver
        self.footprint = footprint
        #: page -> the bytes last committed to it
        self.shadow: dict[int, bytes] = {}
        self.latencies: list[int] = []

    def write(self, page: int, version: int, t: int, counts,
              sample: bool = False) -> int:
        data = payload(page, version)
        try:
            end = self.driver.write_page(page, data, t)
        except DegradedModeError:
            counts.refused_writes += 1
            return t
        except MediaError:
            counts.media_errors += 1
            return t
        counts.writes += 1
        self.shadow[page] = data
        if sample:
            self.latencies.append(max(0, end - t))
        return end

    def read(self, page: int, t: int, counts, sample: bool = False) -> int:
        try:
            _data, end = self.driver.read_page(page, t)
        except MediaError:
            counts.media_errors += 1
            return t
        counts.reads += 1
        if sample:
            self.latencies.append(max(0, end - t))
        return end

    def seq_write(self, t: int, version: int, counts,
                  sample: bool = False) -> int:
        """Write every page of the footprint, in order."""
        for page in range(self.footprint):
            t = self.write(page, version, t, counts, sample)
        return t

    def rand_rw(self, t: int, rng: random.Random, steps: int,
                version_base: int, counts, sample: bool = False) -> int:
        """Mixed steps: read a committed page, else write a random one."""
        for step in range(steps):
            if self.shadow and rng.random() < READ_FRACTION:
                t = self.read(rng.choice(sorted(self.shadow)), t, counts,
                              sample)
            else:
                t = self.write(rng.randrange(self.footprint),
                               version_base + step, t, counts, sample)
        return t

    def verify(self, t: int, counts) -> int:
        """Read back every committed page; each one that fails or
        differs from its shadow is data loss."""
        for page in sorted(self.shadow):
            try:
                data, end = self.driver.read_page(page, t)
            except MediaError:
                counts.data_loss += 1
                continue
            if data != self.shadow[page]:
                counts.data_loss += 1
            counts.reads += 1
            t = end
        return t
