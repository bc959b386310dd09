"""The refresh detector: REF pattern match over deserialized CA samples.

"The refresh detector receives six 8-bit data per clock from the
deserializers, and determines whether those parallel data includes the
state of Refresh" (§IV-A).  The match is

    CKE=H, CS_n=L, ACT_n=H, RAS_n=L, CAS_n=L, WE_n=H

with CKE *steady* — a falling CKE with the same pins is self-refresh
entry and must not arm a device transfer (the following blackout has no
bounded end).

The detector plugs into the shared bus as a snooper.  Each observed
command slot is expanded into two DDR samples (one clock) followed by
idle samples, pushed through the six 1:8 deserializers, and
pattern-matched on the emitted parallel words.  An optional electrical
noise model flips samples at a configurable rate, letting the
§VII-A-style aging experiments quantify detection accuracy (the paper
could not quantify it analytically and relied on aging tests).
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from repro.ddr.commands import CAState, is_refresh_state
from repro.nvmc.deserializer import Deserializer, word_bits

#: Monitored pin names, board-routing order (§IV-A).
PIN_NAMES = ("CKE", "CS_n", "ACT_n", "RAS_n", "CAS_n", "WE_n")

#: Samples injected per observed command slot (1 clock at DDR = 2) plus
#: trailing idle samples so the deserializers keep emitting words.
ACTIVE_SAMPLES = 2
IDLE_SAMPLES = 6

#: Idle (DESELECT) levels per pin: CKE=H, CS_n=H, others H.
IDLE_LEVELS = (True, True, True, True, True, True)

#: The REF match per pin: (CKE, CS_n, ACT_n, RAS_n, CAS_n, WE_n).
REF_PATTERN = (True, False, True, False, False, True)


def _build_slot_lut() -> dict[tuple[bool, ...], bool]:
    """Whole-slot match results for every noise-free pin combination.

    Runs the *sample-level* pipeline (fresh, word-aligned deserializers;
    ACTIVE_SAMPLES of the slot levels then IDLE_SAMPLES of DESELECT) for
    each of the 64 possible six-pin levels, so the fast path is bit-exact
    against the model it replaces by construction rather than by a
    hand-derived truth table.
    """
    lut: dict[tuple[bool, ...], bool] = {}
    for levels in itertools.product((False, True), repeat=len(PIN_NAMES)):
        desers = [Deserializer(name) for name in PIN_NAMES]
        samples = ([levels] * ACTIVE_SAMPLES
                   + [IDLE_LEVELS] * IDLE_SAMPLES)
        matched = False
        for sampled in samples:
            words: list[int | None] = [
                deser.push(sampled[pin])
                for pin, deser in enumerate(desers)]
            if words[0] is not None:
                matched |= RefreshDetector._match_words(words)
        lut[levels] = matched
    return lut


class RefreshDetector:
    """Pattern-matching refresh detector with optional sampling noise.

    Two implementations of the per-slot pattern match coexist:

    * the **sample-level model** serialises the slot through the six 1:8
      deserializers one DDR sample at a time (and is the only legal path
      when ``noise_ber > 0``, because noise flips individual samples);
    * the **fast path** looks the whole slot up in a precomputed table
      keyed on the six pin levels — valid because with zero noise and
      word-aligned deserializers the emitted words are a pure function
      of the slot's pin levels.  The table itself is generated by
      running the sample-level model (see :func:`_build_slot_lut`), so
      the two are bit-exact by construction; a hypothesis property test
      guards the equivalence end to end.

    ``force_slow=True`` pins the detector to the sample-level model even
    with ``noise_ber == 0`` (used by the equivalence tests).
    """

    #: Lazily built on first noise-free detector use (shared, immutable).
    _SLOT_LUT: dict[tuple[bool, ...], bool] | None = None

    def __init__(self, noise_ber: float = 0.0, seed: int = 0,
                 on_refresh: Callable[[int], None] | None = None,
                 force_slow: bool = False) -> None:
        self.noise_ber = noise_ber
        self._rng = random.Random(seed)
        self.on_refresh = on_refresh
        self._deserializers = [Deserializer(name) for name in PIN_NAMES]
        self._last_cke = True
        self.force_slow = force_slow
        if RefreshDetector._SLOT_LUT is None:
            RefreshDetector._SLOT_LUT = _build_slot_lut()
        self._slot_lut = RefreshDetector._SLOT_LUT
        self.detections: list[int] = []
        self.true_positives = 0
        self.false_positives = 0
        self.false_negatives = 0
        self.commands_observed = 0
        #: Injected electrical-noise bursts: ``(start_ps, end_ps, ber)``
        #: intervals during which sampling runs at an elevated BER (and
        #: therefore down the sample-level slow path).  Models a
        #: marginal CA net — the aging scenario of §VII-A.
        self.noise_bursts: list[tuple[int, int, float]] = []
        self.burst_commands = 0

    def inject_noise_burst(self, start_ps: int, end_ps: int,
                           ber: float) -> None:
        """Elevate the sampling BER to ``ber`` over ``[start_ps, end_ps)``."""
        self.noise_bursts.append((start_ps, end_ps, ber))
        self.noise_bursts.sort()

    # -- bus snooper entry point ---------------------------------------------------

    def observe(self, time_ps: int, state: CAState) -> None:
        """Consume one command slot from the CA bus tap."""
        self.commands_observed += 1
        truth = is_refresh_state(state)
        levels = state.pins()
        ber = self.noise_ber
        if self.noise_bursts:
            burst_ber = self._burst_ber(time_ps)
            if burst_ber > ber:
                ber = burst_ber
                self.burst_commands += 1
        if ber == 0.0 and not self.force_slow:
            detected = self._slot_lut[levels]
            # Keep the deserializer counters in step with the samples the
            # slot *would* have shifted through them: one full word per
            # pin per slot (the fast path never leaves a partial fill).
            for deser in self._deserializers:
                deser.words_emitted += 1
        else:
            detected = self._sample_command(levels, ber)
        if detected and self._cke_fell(levels):
            detected = False   # SRE guard: REF pins but CKE falling
        self._last_cke = levels[0]
        if detected and truth:
            self.true_positives += 1
        elif detected and not truth:
            self.false_positives += 1
        elif truth and not detected:
            self.false_negatives += 1
        if detected:
            self.detections.append(time_ps)
            if self.on_refresh is not None:
                self.on_refresh(time_ps)

    # -- internals --------------------------------------------------------------------

    def _cke_fell(self, levels: tuple[bool, ...]) -> bool:
        return self._last_cke and not levels[0]

    def _burst_ber(self, time_ps: int) -> float:
        """Highest injected-burst BER covering ``time_ps`` (0.0 if none)."""
        ber = 0.0
        for start_ps, end_ps, burst_ber in self.noise_bursts:
            if start_ps <= time_ps < end_ps:
                ber = max(ber, burst_ber)
        return ber

    def _sample_command(self, levels: tuple[bool, ...],
                        ber: float | None = None) -> bool:
        """Serialize, deserialize, and pattern-match one command slot."""
        if ber is None:
            ber = self.noise_ber
        matched = False
        for sample_index in range(ACTIVE_SAMPLES + IDLE_SAMPLES):
            if sample_index < ACTIVE_SAMPLES:
                sampled = levels
            else:
                sampled = IDLE_LEVELS
            words = []
            for pin_index, deser in enumerate(self._deserializers):
                level = sampled[pin_index]
                if ber and self._rng.random() < ber:
                    level = not level
                words.append(deser.push(level))
            if words[0] is not None:
                matched |= self._match_words(words)
        return matched

    @staticmethod
    def _match_words(words: list[int | None]) -> bool:
        """True if any aligned sample across the six words matches REF."""
        columns = [word_bits(w) for w in words if w is not None]
        if len(columns) != len(PIN_NAMES):
            return False
        for i in range(Deserializer.WIDTH):
            sample = tuple(columns[pin][i] for pin in range(len(PIN_NAMES)))
            if sample == REF_PATTERN:
                return True
        return False

    # -- metrics -------------------------------------------------------------------------

    @property
    def accuracy(self) -> float:
        """Detection accuracy over everything observed so far."""
        if self.commands_observed == 0:
            return 1.0
        wrong = self.false_positives + self.false_negatives
        return 1.0 - wrong / self.commands_observed
