"""1:8 deserializers on the monitored CA signals.

Fig. 4: "each of the CA signals and the DDR4 differential clock ... are
input of the 1:8 deserializer that parallelizes the incoming signals by
eight bits.  Assuming that the CA signals operate at DDR, the data of
each CA signal is captured every four clock cycles so that the output of
the deserializer is eight-bit wide."

The model pushes one sampled logic level per half-clock and emits an
8-bit parallel word every eight samples; the refresh detector consumes
the aligned words of all six signals.

The shift register is kept as an integer accumulator plus a fill count
(rather than a list of bools): assembling the parallel word is then free
— the accumulator *is* the word — which matters because the sample-level
path runs once per observed command slot per pin.
"""

from __future__ import annotations


class Deserializer:
    """Serial-in, 8-bit-parallel-out shift register for one CA signal."""

    WIDTH = 8

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._word = 0
        self._count = 0
        self.words_emitted = 0

    def push(self, level: bool) -> int | None:
        """Shift in one DDR sample; returns a word every 8th sample.

        Bit 0 of the word is the oldest sample, matching how the RTL
        presents time-ordered captures to the detector.
        """
        if level:
            self._word |= 1 << self._count
        self._count += 1
        if self._count < self.WIDTH:
            return None
        word = self._word
        self._word = 0
        self._count = 0
        self.words_emitted += 1
        return word

    @property
    def pending_samples(self) -> int:
        """Samples captured since the last emitted word."""
        return self._count

    def reset(self) -> None:
        """Drop partial captures (e.g. on relock after clock loss)."""
        self._word = 0
        self._count = 0


def word_bits(word: int, width: int = Deserializer.WIDTH) -> list[bool]:
    """Unpack a parallel word back into time-ordered samples."""
    return [bool(word & (1 << i)) for i in range(width)]
