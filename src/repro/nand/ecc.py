"""ECC model over 4 KB codewords with wear-driven bit-error injection.

The NVMC performs error correction "at the granularity of 4 KB"
(§III-A).  Rather than implement a real BCH/LDPC codec bit-for-bit, the
model captures the externally visible contract:

* ``encode`` wraps a 4 KB payload in a codeword that records the raw
  bit flips the channel injects into it;
* the raw channel can flip bits (injection is driven by a deterministic
  RNG and a raw-bit-error-rate that grows with the block's P/E count);
* ``decode`` corrects up to ``t`` flipped bits per codeword, restoring
  the exact payload, and raises
  :class:`~repro.errors.UncorrectableError` beyond that.

Because injected errors are recorded alongside the codeword, correction
is exact — what a real code guarantees within its budget — while the
failure statistics match the RBER model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import UncorrectableError


@dataclass
class ECCStats:
    """Aggregate codec counters."""

    encoded: int = 0
    decoded: int = 0
    bits_corrected: int = 0
    uncorrectable: int = 0


@dataclass
class Codeword:
    """An encoded page: payload + injected errors."""

    payload: bytes
    flipped_bits: list[int] = field(default_factory=list)


class ECCCodec:
    """A ``t``-bit-correcting code over 4 KB payloads.

    ``t`` defaults to 72 bits per 4 KB codeword — a typical BCH budget
    for SLC-class NAND.
    """

    def __init__(self, t_bits: int = 72, payload_bytes: int = 4096,
                 seed: int = 0x5EED) -> None:
        self.t_bits = t_bits
        self.payload_bytes = payload_bytes
        self.stats = ECCStats()
        self._rng = random.Random(seed)
        #: Armed by fault injectors: the next N decodes fail
        #: uncorrectably regardless of actual flip counts (models a page
        #: whose raw errors exceed any retry's correction budget).
        self.force_uncorrectable = 0

    def inject_uncorrectable(self, count: int = 1) -> None:
        """Arm the next ``count`` decodes to fail uncorrectably."""
        self.force_uncorrectable += count

    def reseed(self, seed: int) -> None:
        """Replace the media RNG (fleet shards forked from one snapshot
        diverge here: same state, independent future error draws)."""
        self._rng = random.Random(seed)

    # -- codec -------------------------------------------------------------------

    def encode(self, payload: bytes) -> Codeword:
        """Wrap a payload in a codeword."""
        if len(payload) != self.payload_bytes:
            raise UncorrectableError(
                f"codeword payload must be {self.payload_bytes} B, "
                f"got {len(payload)}")
        self.stats.encoded += 1
        return Codeword(payload=bytes(payload))

    def inject_errors(self, codeword: Codeword, rber: float) -> int:
        """Flip bits at raw bit-error-rate ``rber``; returns flips added."""
        total_bits = self.payload_bytes * 8
        # Expected flips ~ Binomial(total_bits, rber); sample cheaply.
        expected = total_bits * rber
        flips = self._sample_poisson(expected)
        for _ in range(flips):
            codeword.flipped_bits.append(self._rng.randrange(total_bits))
        return flips

    def decode(self, codeword: Codeword) -> bytes:
        """Recover the payload, correcting up to ``t`` raw bit errors."""
        self.stats.decoded += 1
        if self.force_uncorrectable > 0:
            self.force_uncorrectable -= 1
            self.stats.uncorrectable += 1
            raise UncorrectableError("injected uncorrectable codeword")
        distinct = set(codeword.flipped_bits)
        # Bits flipped an even number of times cancel out on the wire.
        odd_flips = [b for b in distinct
                     if codeword.flipped_bits.count(b) % 2 == 1]
        if len(odd_flips) > self.t_bits:
            self.stats.uncorrectable += 1
            raise UncorrectableError(
                f"{len(odd_flips)} raw bit errors exceed the "
                f"{self.t_bits}-bit correction budget")
        self.stats.bits_corrected += len(odd_flips)
        return codeword.payload

    # -- RBER model -----------------------------------------------------------------

    @staticmethod
    def rber_for_wear(erase_count: int, endurance: int,
                      floor: float = 1e-8, ceiling: float = 1e-4) -> float:
        """Raw bit-error rate as a function of block wear.

        Fresh blocks sit at ``floor``; RBER grows quadratically toward
        ``ceiling`` at the endurance limit — the conventional SLC wear
        curve shape.
        """
        if endurance <= 0:
            return ceiling
        x = min(1.0, erase_count / endurance)
        return floor + (ceiling - floor) * x * x

    def _sample_poisson(self, mean: float) -> int:
        """Small-mean Poisson sampler (Knuth) for flip counts."""
        if mean <= 0:
            return 0
        if mean > 30:
            # Gaussian approximation for large means.
            value = round(self._rng.gauss(mean, mean ** 0.5))
            return max(0, value)
        limit = 2.718281828459045 ** (-mean)
        k, product = 0, 1.0
        while True:
            product *= self._rng.random()
            if product <= limit:
                return k
            k += 1


@dataclass(frozen=True)
class AgingParams:
    """Closed-form retention and read-disturb terms composing with wear.

    The composed RBER for a block is::

        wear      = ECCCodec.rber_for_wear(erase_count, endurance)
        retention = retention_per_year * aged_years
                    * (1 + wear_retention_boost * x**2)   # x = wear ratio
        disturb   = read_disturb_per_kread * read_count / 1000
        rber      = min(ceiling, wear + retention + disturb)

    All three terms are deterministic functions of per-block counters
    (:class:`repro.nand.device.BlockInfo`), so a fast-forward that bumps
    those counters ages the media without event-by-event simulation.
    The ``ceiling`` caps the composed rate below the uncorrectable
    threshold for a single read (t=72 over 32768 bits ≈ 2.2e-3) so old
    media fails through retries and grown bad blocks, not instant loss.
    """

    retention_per_year: float = 2e-5
    wear_retention_boost: float = 4.0
    read_disturb_per_kread: float = 5e-7
    ceiling: float = 1.5e-3

    def rber(self, erase_count: int, endurance: int, aged_years: float,
             read_count: int, floor: float = 1e-8,
             wear_ceiling: float = 1e-4) -> float:
        """Composed RBER: wear + retention + read disturb, capped."""
        wear = ECCCodec.rber_for_wear(erase_count, endurance,
                                      floor=floor, ceiling=wear_ceiling)
        x = 1.0 if endurance <= 0 else min(1.0, erase_count / endurance)
        retention = (self.retention_per_year * max(0.0, aged_years)
                     * (1.0 + self.wear_retention_boost * x * x))
        disturb = self.read_disturb_per_kread * max(0, read_count) / 1000.0
        return min(self.ceiling, wear + retention + disturb)
