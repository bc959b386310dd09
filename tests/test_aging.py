"""The endurance-campaign harness: gates, telemetry, determinism.

One quick campaign (module-scoped — it is the expensive fixture every
assertion shares) must pass all four acceptance gates, render a valid
``repro.aging/1`` report, and expose internally-consistent fleet
telemetry.  Determinism is checked on a deliberately tiny single-
strategy config: byte-identical reruns, snapshot-vs-rebuild equality,
and ``PYTHONHASHSEED`` independence via subprocesses.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.aging.campaign import AgingConfig, run_aging
from repro.aging.report import SHAPE
from repro.errors import ConfigError
from repro.nand.endurance import (paper_device_lifetime,
                                  project_lifetime_years)
from repro.nand.spec import ZNAND_64GB
from repro.report import check, render_report
from repro.units import gb

QUICK = AgingConfig(quick=True)
SMALL = AgingConfig(quick=True, shards=1, max_epochs=3,
                    strategies=("greedy",))


@pytest.fixture(scope="module")
def quick_result():
    return run_aging(QUICK)


@pytest.fixture(scope="module")
def quick_payload(quick_result):
    return json.loads(render_report(quick_result, timestamp="pinned"))


class TestConfig:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            AgingConfig(strategies=("greedy", "fifo"))

    def test_greedy_baseline_required(self):
        with pytest.raises(ConfigError):
            AgingConfig(strategies=("static",))

    def test_duplicate_strategies_rejected(self):
        with pytest.raises(ConfigError):
            AgingConfig(strategies=("greedy", "greedy"))

    def test_bad_ranges_rejected(self):
        with pytest.raises(ConfigError):
            AgingConfig(shards=0)
        with pytest.raises(ConfigError):
            AgingConfig(wear_accel=0)
        with pytest.raises(ConfigError):
            AgingConfig(footprint_pages=4)


class TestGates:
    def test_campaign_is_clean(self, quick_result):
        assert quick_result.zero_loss
        assert quick_result.sanitizers_quiet
        assert quick_result.graceful_order
        assert quick_result.leveling_beats_greedy
        assert quick_result.ok

    def test_every_shard_lost_nothing(self, quick_result):
        assert all(s.data_loss == 0 for s in quick_result.shards)

    def test_leveling_strictly_beats_greedy_per_strategy(
            self, quick_result):
        greedy = quick_result.mean_wear_spread_x1000("greedy")
        for name in QUICK.strategies:
            if name == "greedy":
                continue
            assert quick_result.mean_wear_spread_x1000(name) < greedy

    def test_population_reaches_end_of_life(self, quick_result):
        """The campaign must actually age shards to death — a run where
        nobody dies proves nothing about graceful degradation."""
        assert any(s.read_only_epoch > 0 for s in quick_result.shards)


class TestTelemetry:
    def test_shard_population(self, quick_result):
        assert len(quick_result.shards) == (
            QUICK.shard_count * len(QUICK.strategies))
        for name in QUICK.strategies:
            assert len(quick_result.by_strategy(name)) == QUICK.shard_count

    def test_survival_curves_are_nonincreasing(self, quick_result):
        for name in QUICK.strategies:
            curve = quick_result.survival_curve(name)
            assert len(curve) == QUICK.epoch_budget
            assert all(a >= b for a, b in zip(curve, curve[1:]))
            assert curve[0] <= QUICK.shard_count

    def test_time_to_read_only_partitions_the_population(
            self, quick_result):
        for name in QUICK.strategies:
            ttro = quick_result.time_to_read_only(name)
            assert ttro["reached"] + ttro["censored"] == QUICK.shard_count
            if ttro["reached"]:
                assert 1 <= ttro["p50_epochs"] <= ttro["p90_epochs"]

    def test_dead_shards_are_marked_read_only(self, quick_result):
        for shard in quick_result.shards:
            if shard.read_only_epoch > 0:
                assert shard.end_state == "read_only"
                assert shard.read_only_epoch <= shard.epochs_run

    def test_ladder_histogram_counts_every_transition(self, quick_result):
        histogram = quick_result.ladder_histogram()
        assert sum(histogram.values()) == sum(
            len(s.ladder) for s in quick_result.shards)
        assert histogram.get("remap->read_only", 0) >= 1

    def test_epoch_logs_cover_every_epoch(self, quick_result):
        for shard in quick_result.shards:
            assert [e.epoch for e in shard.epoch_log] == list(
                range(1, shard.epochs_run + 1))
            assert all(e.wear_spread_x1000 >= 1000
                       for e in shard.epoch_log)


class TestReport:
    def test_report_validates(self, quick_payload):
        assert check(SHAPE, quick_payload) == []

    def test_snapshot_knob_never_reaches_the_report(self, quick_payload):
        """snapshot-vs-rebuild byte-identity requires that the knob is
        not serialised anywhere."""
        assert "snapshot" not in quick_payload["config"]

    def test_missing_key_is_flagged(self, quick_payload):
        broken = dict(quick_payload)
        del broken["totals"]
        assert check(SHAPE, broken)

    def test_wrong_schema_is_flagged(self, quick_payload):
        broken = dict(quick_payload, schema="repro.aging/2")
        assert check(SHAPE, broken)

    def test_negative_counter_is_flagged(self, quick_payload):
        broken = json.loads(json.dumps(quick_payload))
        broken["totals"]["writes"] = -1
        assert check(SHAPE, broken)

    def test_mangled_shard_is_flagged(self, quick_payload):
        broken = json.loads(json.dumps(quick_payload))
        del broken["strategies"][0]["shards"][0]["ladder"]
        assert check(SHAPE, broken)

    def test_non_bool_gate_is_flagged(self, quick_payload):
        broken = json.loads(json.dumps(quick_payload))
        broken["gates"]["zero_loss"] = 1
        assert check(SHAPE, broken)


class TestAnalyticCrossCheck:
    """§VII-A consistency: the closed-form projection and the measured
    campaign must tell the same story."""

    def test_paper_lifetime_matches_the_closed_form(self, quick_payload):
        analytic = quick_payload["analytic"]
        assert analytic["paper_lifetime_years_x1000"] == round(
            paper_device_lifetime() * 1000)
        assert analytic["paper_waf_x1000"] == 1100

    def test_measured_waf_is_near_the_paper_operating_point(
            self, quick_result, quick_payload):
        measured = quick_payload["analytic"]["measured_waf_x1000"]
        assert measured == quick_result.mean_waf_x1000("greedy")
        assert 1000 <= measured <= 1400    # paper's 1.1 +/- workload slack

    def test_projection_recomputes_from_measured_numbers(
            self, quick_result, quick_payload):
        analytic = quick_payload["analytic"]
        spread = quick_result.mean_wear_spread_x1000("greedy")
        expected = project_lifetime_years(
            ZNAND_64GB, 2 * gb(64), 58.3,
            waf=analytic["measured_waf_x1000"] / 1000,
            wear_spread=max(1.0, spread / 1000))
        assert analytic["projected_lifetime_years_x1000"] == round(
            expected * 1000)
        # The uneven wear the campaign measured can only cost lifetime.
        assert (analytic["projected_lifetime_years_x1000"]
                <= analytic["paper_lifetime_years_x1000"])


class TestDeterminism:
    def test_repeated_runs_render_byte_identical_reports(self):
        first = render_report(run_aging(SMALL))
        second = render_report(run_aging(SMALL))
        assert first == second

    def test_snapshot_and_rebuild_paths_agree_byte_for_byte(self):
        accelerated = render_report(run_aging(SMALL))
        rebuilt = render_report(run_aging(
            dataclasses.replace(SMALL, snapshot=False)))
        assert accelerated == rebuilt


_DIGEST_SNIPPET = """
import zlib
from repro.aging.campaign import AgingConfig, run_aging
from repro.report import render_report

report = render_report(run_aging(AgingConfig(
    quick=True, shards=1, max_epochs=3, strategies=("greedy",))))
print(zlib.crc32(report.encode()))
"""


def _campaign_digest(hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _DIGEST_SNIPPET],
        capture_output=True, text=True, env=env, check=True)
    return result.stdout.strip()


def test_campaign_is_hash_seed_independent():
    assert len({_campaign_digest(seed) for seed in ("0", "12345")}) == 1
