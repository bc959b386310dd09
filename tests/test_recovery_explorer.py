"""Tests for the crash-point explorer and its RECOVERY report."""

import json

import pytest

from repro.recovery import explorer
from repro.recovery.explorer import explore
from repro.recovery.report import SCHEMA, SHAPE
from repro.report import check, render_report


@pytest.fixture(scope="module")
def quick_result():
    return explore(seed=0, quick=True)


def test_a_bug_after_remount_fails_the_sweep(monkeypatch):
    """Only a media refusal or CP timeout counts as loss after a cut;
    a programming error in the mounted driver must propagate."""
    mount = explorer.recover_mount

    def broken_mount(*args, **kwargs):
        mounted, report = mount(*args, **kwargs)

        def read_page(page, now_ps):
            raise TypeError("planted")

        mounted.driver.read_page = read_page
        return mounted, report

    monkeypatch.setattr(explorer, "recover_mount", broken_mount)
    with pytest.raises(TypeError, match="planted"):
        explore(seed=0, quick=True)


class TestQuickSweep:
    def test_sweep_is_clean(self, quick_result):
        totals = quick_result.totals()
        assert quick_result.ok
        assert quick_result.baseline_ok
        assert totals["committed_lost"] == 0
        assert totals["torn_served"] == 0
        assert totals["failed_runs"] == 0

    def test_covers_at_least_fifty_cut_points(self, quick_result):
        assert quick_result.totals()["cut_points"] >= 50

    def test_reaches_the_drain(self, quick_result):
        assert quick_result.totals()["drain_cuts"] >= 1
        # Acked-but-uncommitted loss appears only under interrupted drains.
        for outcome in quick_result.outcomes:
            if outcome.acked_uncommitted:
                assert outcome.drain_interrupted

    def test_every_cut_actually_fired(self, quick_result):
        assert sum(quick_result.sites().values()) == len(
            quick_result.outcomes)
        assert all(count > 0 for count in quick_result.sites().values())

    def test_windows_partition_the_cut_points(self, quick_result):
        windows = quick_result.windows()
        points = sorted(o.index for o in quick_result.outcomes)
        assert sum(w["runs"] for w in windows) == len(points)
        assert windows[0]["start"] == points[0]
        assert windows[-1]["end"] == points[-1]
        for earlier, later in zip(windows, windows[1:]):
            assert earlier["end"] < later["start"]

    def test_report_is_deterministic(self, quick_result):
        again = explore(seed=0, quick=True)
        assert render_report(quick_result) == render_report(again)

    def test_report_validates(self, quick_result):
        payload = json.loads(render_report(quick_result))
        assert check(SHAPE, payload) == []
        assert payload["schema"] == SCHEMA
        assert payload["generated_at"] is None

    def test_timestamp_is_injected_verbatim(self, quick_result):
        payload = json.loads(
            render_report(quick_result, timestamp="20260807-000000"))
        assert payload["generated_at"] == "20260807-000000"
        assert check(SHAPE, payload) == []


class TestReportValidation:
    def good(self, quick_result):
        return json.loads(render_report(quick_result))

    def test_rejects_non_object(self):
        assert check(SHAPE, [1, 2]) != []
        assert check(SHAPE, None) != []

    def test_rejects_wrong_schema(self, quick_result):
        payload = self.good(quick_result)
        payload["schema"] = "repro.recovery/0"
        assert any("schema" in p for p in check(SHAPE, payload))

    def test_rejects_missing_and_unknown_keys(self, quick_result):
        payload = self.good(quick_result)
        del payload["totals"]
        payload["surprise"] = 1
        problems = check(SHAPE, payload)
        assert any("missing" in p for p in problems)
        assert any("unknown" in p for p in problems)

    def test_rejects_unsorted_cut_points(self, quick_result):
        payload = self.good(quick_result)
        payload["cut_points"] = payload["cut_points"][::-1]
        assert any("sorted" in p for p in check(SHAPE, payload))

    def test_rejects_negative_totals(self, quick_result):
        payload = self.good(quick_result)
        payload["totals"]["committed_lost"] = -1
        assert any("committed_lost" in p for p in check(SHAPE, payload))


class TestCrashCommand:
    def test_quick_cli_run_writes_valid_report(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["crash", "--quick", "--out", str(tmp_path)])
        assert code == 0
        reports = list(tmp_path.glob("RECOVERY_*.json"))
        assert len(reports) == 1
        payload = json.loads(reports[0].read_text())
        assert check(SHAPE, payload) == []
        out = capsys.readouterr().out
        assert "crash sweep clean" in out
