"""Acceptance tests for the long-run health soak harness."""

import json

import pytest

from repro.cli import main
from repro.health.monitor import LADDER_EDGES
from repro.health.report import SCHEMA, SHAPE
from repro.health.soak import run_soak
from repro.report import check, render_report


@pytest.fixture(scope="module")
def quick_result():
    """One quick soak shared by the module (a soak run is the slow part)."""
    return run_soak(seed=0, quick=True)


@pytest.mark.sanitizer_exempt
class TestQuickSoak:
    """The soak runs its own sanitizer suite; the ambient one would
    double-count the deliberately injected faults."""

    def test_soak_is_clean(self, quick_result):
        assert quick_result.ok
        assert quick_result.data_loss == 0
        assert quick_result.violations == 0

    def test_round_sequence_marches_the_ladder(self, quick_result):
        names = [rnd.name for rnd in quick_result.rounds]
        assert names == ["baseline", "cp-storm", "media-remap",
                         "wear-out", "fail-stop"]
        # Each round starts where the previous one ended.
        for earlier, later in zip(quick_result.rounds,
                                  quick_result.rounds[1:]):
            assert later.health_before == earlier.health_after
        assert quick_result.rounds[0].health_before == "ok"
        assert quick_result.rounds[-1].health_after == "fail_stop"

    def test_every_ladder_edge_is_exercised(self, quick_result):
        expected = {f"{a}->{b}" for a, b in LADDER_EDGES}
        assert set(quick_result.edges) == expected
        assert all(count >= 1 for count in quick_result.edges.values())

    def test_faults_were_actually_composed(self, quick_result):
        armed = {fault for rnd in quick_result.rounds for fault in rnd.faults}
        assert len(armed) >= 3  # the acceptance gate's composition floor
        storm = quick_result.rounds[1]
        assert storm.notes.get("cp_retries", 0) > 0

    def test_degradation_is_bounded_not_free(self, quick_result):
        assert quick_result.latency_ok
        assert quick_result.soak_p99_ps >= quick_result.clean_p99_ps > 0
        wear_out = quick_result.rounds[3]
        assert wear_out.refused_writes > 0  # read-only mode refused work
        assert wear_out.data_loss == 0      # ... without losing anything

    def test_scrub_ran_during_the_soak(self, quick_result):
        assert quick_result.scrub["windows_used"] > 0


@pytest.mark.sanitizer_exempt
class TestDeterminism:
    def test_same_seed_renders_byte_identical_reports(self, quick_result):
        twin = run_soak(seed=0, quick=True)
        assert render_report(twin, timestamp="T") == \
            render_report(quick_result, timestamp="T")

    def test_different_seed_diverges(self, quick_result):
        other = run_soak(seed=1, quick=True)
        assert other.ok  # the gate holds for any seed ...
        assert render_report(other, timestamp="T") != \
            render_report(quick_result, timestamp="T")  # ... bytes differ


class TestReportSchema:
    def test_report_validates(self, quick_result):
        payload = json.loads(render_report(quick_result, timestamp="T"))
        assert payload["schema"] == SCHEMA
        assert check(SHAPE, payload) == []

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda p: p.pop("rounds"), "rounds"),
        (lambda p: p.update(schema="repro.soak/0"), "schema"),
        (lambda p: p["totals"].update(data_loss=-1), "data_loss"),
        (lambda p: p["rounds"][0].pop("health_after"), "health_after"),
        (lambda p: p["edges"].pop("ok->retry"), "edges"),
        (lambda p: p["health_timeline"][0].pop("reason"), "reason"),
        (lambda p: p.update(ok="yes"), "ok"),
    ])
    def test_validator_rejects_mutations(self, quick_result, mutate,
                                         fragment):
        payload = json.loads(render_report(quick_result, timestamp="T"))
        mutate(payload)
        problems = check(SHAPE, payload)
        assert problems
        assert any(fragment in problem for problem in problems)


@pytest.mark.sanitizer_exempt
class TestCLI:
    def test_quick_cli_writes_a_report(self, tmp_path, capsys):
        rc = main(["soak", "--quick", "--seed", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        [path] = list(tmp_path.glob("SOAK_*.json"))
        payload = json.loads(path.read_text())
        assert check(SHAPE, payload) == []
        out = capsys.readouterr().out
        assert "soak clean" in out
        assert "fail-stop" in out  # per-round progress lines printed
