"""The ECC codec against the codec with the parity check it dropped.

The codec used to carry a BLAKE2b digest of each payload in the
codeword and compare it on decode.  Both callers (the controller's ECC
pass and the patrol scrubber) encode, inject and decode the same
immutable bytes within one function, and ``inject_errors`` only appends
flip positions, so that comparison could not fail.  ``ECCCodec`` below
is the replaced codec, kept verbatim as the reference oracle.

A hypothesis property drives both codecs through one drawn sequence of
ECC passes (payloads, wrong-size payloads, raw bit-error rates up past
the correction budget) and ``inject_uncorrectable`` arms.  It requires
equal return values, raised errors, injected flips, ``ECCStats`` and
RNG state after every step.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UncorrectableError
from repro.nand import ecc as live

# -- the replaced codec, verbatim: the oracle ---------------------------------


@dataclass
class ECCStats:
    """Aggregate codec counters."""

    encoded: int = 0
    decoded: int = 0
    bits_corrected: int = 0
    uncorrectable: int = 0


@dataclass
class Codeword:
    """An encoded page: payload + parity descriptor + injected errors."""

    payload: bytes
    checksum: bytes
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
        return Codeword(payload=bytes(payload),
                        checksum=self._digest(payload))

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
        payload = codeword.payload
        if self._digest(payload) != codeword.checksum:
            self.stats.uncorrectable += 1
            raise UncorrectableError("payload does not match parity")
        return payload

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

    @staticmethod
    def _digest(payload: bytes) -> bytes:
        return hashlib.blake2b(payload, digest_size=8).digest()


# -- the property ---------------------------------------------------------------

PAYLOAD_BYTES = 4096

#: An ECC pass: (payload seed, payload length, raw bit-error rate).  A
#: 4 KB codeword reaches the default t=72 flips near RBER 2.2e-3.
PASS = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([PAYLOAD_BYTES] * 6 + [0, PAYLOAD_BYTES - 1]),
    st.one_of(st.just(0.0), st.floats(1e-8, 4e-3)))
ARM = st.integers(1, 3)
STEPS = st.lists(st.one_of(st.tuples(st.just("pass"), PASS),
                           st.tuples(st.just("arm"), ARM)),
                 max_size=40)


def _ecc_pass(codec, payload: bytes, rber: float):
    """Encode, inject and decode as the controller's ECC pass does:
    ``(flips, decoded)``, or the error with the flips injected so far."""
    flips = None
    try:
        codeword = codec.encode(payload)
        flips = (codec.inject_errors(codeword, rber),
                 list(codeword.flipped_bits))
        return flips, codec.decode(codeword)
    except UncorrectableError as exc:
        return flips, (type(exc), str(exc))


def _state(codec):
    return (asdict(codec.stats), codec._rng.getstate(),
            codec.force_uncorrectable)


@settings(max_examples=200, deadline=None)
@given(steps=STEPS, t_bits=st.integers(0, 80), seed=st.integers(0, 2**16))
def test_codec_matches_the_parity_checking_oracle(steps, t_bits, seed):
    codec = live.ECCCodec(t_bits, PAYLOAD_BYTES, seed)
    oracle = ECCCodec(t_bits, PAYLOAD_BYTES, seed)
    for kind, step in steps:
        if kind == "arm":
            codec.inject_uncorrectable(step)
            oracle.inject_uncorrectable(step)
        else:
            payload_seed, length, rber = step
            payload = random.Random(payload_seed).randbytes(length)
            assert _ecc_pass(codec, payload, rber) == \
                _ecc_pass(oracle, payload, rber)
        assert _state(codec) == _state(oracle)
