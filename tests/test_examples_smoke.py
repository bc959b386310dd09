"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests keep them green.
Each is run in-process via runpy with stdout captured.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))

#: Examples that deliberately break protocol rules (the window tour
#: demonstrates a rogue master colliding) run without the sanitizers.
_EXEMPT = {"refresh_window_tour.py"}

PARAMS = [pytest.param(name, marks=pytest.mark.sanitizer_exempt)
          if name in _EXEMPT else name for name in EXAMPLES]


@pytest.mark.parametrize("script", PARAMS)
def test_example_runs(script, capsys, monkeypatch):
    # Examples must not depend on argv or cwd.
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100, f"{script} produced almost no output"


def test_all_expected_examples_present():
    expected = {"quickstart.py", "refresh_window_tour.py",
                "imdb_cache_study.py", "power_failure_drill.py",
                "scm_design_space.py", "roadmap_ablation.py",
                "design_sweeps.py"}
    assert expected <= set(EXAMPLES)


def test_quickstart_reports_all_three_tiers(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["quickstart.py"])
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "Baseline" in out
    assert "NVDC-Cached" in out
    assert "NVDC-Uncached" in out


def test_power_failure_drill_recovers_every_flushed_page(capsys,
                                                         monkeypatch):
    monkeypatch.setattr(sys, "argv", ["power_failure_drill.py"])
    runpy.run_path(str(EXAMPLES_DIR / "power_failure_drill.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "REBOOT: 6/6 flushed pages recovered intact" in out.splitlines()
