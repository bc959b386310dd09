"""Tests for experiment-record export and run diffing."""

import csv
import io
import json
from pathlib import Path

from repro.analysis.export import diff_runs, load_json, to_csv, to_json
from repro.analysis.results import ExperimentRecord

REPO = Path(__file__).resolve().parent.parent


def sample_records():
    a = ExperimentRecord("fig8", "randrw")
    a.add("cached read", "MB/s", 1835, 1834.8)
    a.add("extra", "count", None, 3)
    a.note("a note")
    b = ExperimentRecord("fig12", "td")
    b.add("tD=0", "MB/s", 1503, 1505.9)
    return [a, b]


class TestCSV:
    def test_header_and_rows(self):
        text = to_csv(sample_records())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "experiment_id"
        assert len(rows) == 4   # header + 3 comparisons
        assert rows[1][0] == "fig8"
        assert rows[2][4] == ""          # paper=None -> empty cell

    def test_ratio_column(self):
        text = to_csv(sample_records())
        rows = list(csv.reader(io.StringIO(text)))
        assert float(rows[1][6]) == round(1834.8 / 1835, 6)


class TestJSON:
    def test_round_trip(self):
        records = sample_records()
        loaded = load_json(to_json(records))
        assert len(loaded) == 2
        assert loaded[0].experiment_id == "fig8"
        assert loaded[0].comparisons[0].measured == 1834.8
        assert loaded[0].notes == ["a note"]

    def test_none_paper_survives(self):
        loaded = load_json(to_json(sample_records()))
        assert loaded[0].comparisons[1].paper is None


class TestDiff:
    def test_identical_runs_are_clean(self):
        assert diff_runs(sample_records(), sample_records()) == []

    def test_drift_detected(self):
        old = sample_records()
        new = sample_records()
        drifted = ExperimentRecord("fig8", "randrw")
        drifted.add("cached read", "MB/s", 1835, 1600.0)   # -13 %
        drifted.add("extra", "count", None, 3)
        new[0] = drifted
        report = diff_runs(old, new)
        assert len(report) == 1
        assert "DRIFT" in report[0]

    def test_small_wiggle_tolerated(self):
        old = sample_records()
        new = sample_records()
        wiggled = ExperimentRecord("fig8", "randrw")
        wiggled.add("cached read", "MB/s", 1835, 1834.8 * 1.01)
        wiggled.add("extra", "count", None, 3)
        new[0] = wiggled
        assert diff_runs(old, new, tolerance=0.02) == []

    def test_new_metric_reported(self):
        old = sample_records()
        new = sample_records()
        new[1].add("tD=1.85", "MB/s", 914, 962.0)
        report = diff_runs(old, new)
        assert any(line.startswith("NEW") for line in report)

    def test_real_experiment_exports(self):
        from repro.experiments import fig12_td
        record, _ = fig12_td.run()
        text = to_csv([record])
        assert "fig12" in text
        assert load_json(to_json([record]))[0].experiment_id == "fig12"


def test_committed_results_json_is_canonical():
    """``results.json`` is byte-for-byte what :func:`to_json` writes for
    its records (sorted keys), so regenerating it cannot reorder it."""
    text = (REPO / "results.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)
