"""Tests for the 1:8 deserializer and the refresh detector."""

import pytest

from repro.ddr.commands import CommandKind, encode
from repro.nvmc.deserializer import Deserializer, word_bits
from repro.nvmc.refresh_detector import RefreshDetector


class TestDeserializer:
    def test_emits_every_eight_samples(self):
        deser = Deserializer()
        for i in range(7):
            assert deser.push(True) is None
        word = deser.push(True)
        assert word == 0xFF
        assert deser.words_emitted == 1

    def test_bit_order_is_time_order(self):
        deser = Deserializer()
        pattern = [True, False, True, False, False, True, True, False]
        word = None
        for bit in pattern:
            word = deser.push(bit)
        assert word_bits(word) == pattern

    def test_reset_drops_partial(self):
        deser = Deserializer()
        deser.push(True)
        deser.push(True)
        assert deser.pending_samples == 2
        deser.reset()
        assert deser.pending_samples == 0
        for _ in range(7):
            assert deser.push(False) is None
        assert deser.push(False) == 0


class TestDetectorDecoding:
    def test_detects_refresh(self):
        det = RefreshDetector()
        det.observe(1000, encode(CommandKind.REF))
        assert det.detections == [1000]
        assert det.true_positives == 1
        assert det.false_positives == 0

    @pytest.mark.parametrize("kind", [
        CommandKind.ACT, CommandKind.RD, CommandKind.WR, CommandKind.PRE,
        CommandKind.PREA, CommandKind.MRS, CommandKind.ZQCL,
        CommandKind.NOP, CommandKind.DES, CommandKind.SRX,
    ])
    def test_ignores_other_commands(self, kind):
        det = RefreshDetector()
        det.observe(1000, encode(kind))
        assert det.detections == []
        assert det.false_positives == 0

    def test_sre_not_detected_as_refresh(self):
        """Self-refresh entry = REF pins + falling CKE; must not arm."""
        det = RefreshDetector()
        det.observe(1000, encode(CommandKind.SRE))
        assert det.detections == []
        assert det.false_positives == 0

    def test_command_stream_detects_each_refresh(self):
        det = RefreshDetector()
        stream = [CommandKind.ACT, CommandKind.RD, CommandKind.PREA,
                  CommandKind.REF, CommandKind.ACT, CommandKind.PREA,
                  CommandKind.REF, CommandKind.NOP]
        for i, kind in enumerate(stream):
            det.observe(i * 100, encode(kind))
        assert det.detections == [300, 600]
        assert det.commands_observed == len(stream)
        assert det.accuracy == 1.0

    def test_callback_fires_on_detection(self):
        hits = []
        det = RefreshDetector(on_refresh=hits.append)
        det.observe(5, encode(CommandKind.REF))
        det.observe(6, encode(CommandKind.ACT))
        assert hits == [5]


class TestDetectorNoise:
    def test_heavy_noise_causes_errors(self):
        det = RefreshDetector(noise_ber=0.2, seed=3)
        for i in range(500):
            kind = CommandKind.REF if i % 10 == 0 else CommandKind.ACT
            det.observe(i, encode(kind))
        assert det.false_positives + det.false_negatives > 0
        assert det.accuracy < 1.0

    def test_clean_channel_is_perfect(self):
        det = RefreshDetector(noise_ber=0.0)
        for i in range(1000):
            kind = CommandKind.REF if i % 7 == 0 else CommandKind.RD
            det.observe(i, encode(kind))
        assert det.accuracy == 1.0
        assert det.true_positives == len(
            [i for i in range(1000) if i % 7 == 0])

    def test_noise_is_deterministic_per_seed(self):
        def run(seed):
            det = RefreshDetector(noise_ber=0.05, seed=seed)
            for i in range(200):
                det.observe(i, encode(CommandKind.REF))
            return (det.true_positives, det.false_negatives)

        assert run(11) == run(11)

    def test_accuracy_vs_noise_sweep(self):
        """Accuracy vs per-sample bit-flip rate over a realistic command
        mix: the margin the paper could not measure on silicon."""
        mix = [CommandKind.ACT, CommandKind.RD, CommandKind.WR,
               CommandKind.PRE, CommandKind.NOP]
        accuracies = {}
        for ber in (0.0, 1e-6, 1e-4, 1e-3, 1e-2, 5e-2):
            detector = RefreshDetector(noise_ber=ber, seed=13)
            for i in range(20_000):
                if i % 16 == 0:
                    kind = CommandKind.REF
                else:
                    kind = mix[i % len(mix)]
                detector.observe(i, encode(kind))
            accuracies[ber] = detector.accuracy
        assert accuracies[0.0] == 1.0
        assert accuracies[5e-2] < 1.0            # heavy noise must hurt
        assert accuracies[1e-6] > accuracies[5e-2]
