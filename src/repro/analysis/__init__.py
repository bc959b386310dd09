"""Result aggregation and rendering.

* :mod:`repro.analysis.stats` — latency accumulators and percentile
  arithmetic used by every runner.
* :mod:`repro.analysis.results` — typed experiment records with
  paper-vs-measured comparisons and the paper-shape claims each
  experiment checks.
* :mod:`repro.analysis.tables` — plain-text table rendering for
  ``repro tables`` and the design sweeps.
"""

from repro.analysis.results import Claim, Comparison, ExperimentRecord
from repro.analysis.stats import LatencyAccumulator, summarize
from repro.analysis.tables import render_table

__all__ = [
    "Claim",
    "Comparison",
    "ExperimentRecord",
    "LatencyAccumulator",
    "summarize",
    "render_table",
]
