"""Tests for experiment-record export."""

import csv
import io
import json
from pathlib import Path

from repro.analysis.export import to_csv, to_json
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
        loaded = json.loads(to_json(sample_records()))
        assert len(loaded) == 2
        assert loaded[0]["experiment_id"] == "fig8"
        assert loaded[0]["comparisons"][0]["measured"] == 1834.8
        assert loaded[0]["notes"] == ["a note"]

    def test_none_paper_survives(self):
        loaded = json.loads(to_json(sample_records()))
        assert loaded[0]["comparisons"][1]["paper"] is None

    def test_real_experiment_exports(self):
        from repro.experiments import fig12_td
        record = fig12_td.run()
        text = to_csv([record])
        assert "fig12" in text
        assert json.loads(to_json([record]))[0]["experiment_id"] == "fig12"


def test_committed_results_json_is_canonical():
    """``results.json`` is byte-for-byte what :func:`to_json` writes for
    its records (sorted keys), so regenerating it cannot reorder it."""
    text = (REPO / "results.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)
