"""Export experiment records to CSV / JSON for external analysis.

The CLI prints human records; this module produces the
machine-readable forms: ``repro report`` writes them as ``results.csv``
(one row per comparison) and ``results.json`` (comparisons, notes and
claims per record), which CI diffs with git.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable

from repro.analysis.results import ExperimentRecord

CSV_COLUMNS = ("experiment_id", "title", "label", "unit", "paper",
               "measured", "ratio")


def to_csv(records: Iterable[ExperimentRecord]) -> str:
    """All comparisons of all records as CSV text."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for record in records:
        for c in record.comparisons:
            writer.writerow([
                record.experiment_id, record.title, c.label, c.unit,
                "" if c.paper is None else c.paper,
                c.measured,
                "" if c.ratio is None else f"{c.ratio:.6g}",
            ])
    return out.getvalue()


def to_json(records: Iterable[ExperimentRecord]) -> str:
    """All records as a JSON document (notes and claims included)."""
    payload = []
    for record in records:
        payload.append({
            "experiment_id": record.experiment_id,
            "title": record.title,
            "comparisons": [
                {"label": c.label, "unit": c.unit, "paper": c.paper,
                 "measured": c.measured, "ratio": c.ratio}
                for c in record.comparisons
            ],
            "notes": list(record.notes),
            "claims": [{"text": c.text, "ok": c.ok}
                       for c in record.claims],
        })
    return json.dumps(payload, indent=2, sort_keys=True)
