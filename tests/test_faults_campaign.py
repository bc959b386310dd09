"""Tests for the campaign runner, report schema, and faults CLI."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.faults import (INJECTORS, SCHEMA, SHAPE, campaign_matrix,
                          injector_names, run_campaign)
from repro.faults.campaign import cell_seed_for
from repro.report import check, render_report


@pytest.fixture(scope="module")
def quick_result():
    return run_campaign(seed=0, quick=True)


class TestMatrix:
    def test_quick_matrix_shape(self):
        matrix = campaign_matrix(quick=True)
        assert len(matrix) == 6
        assert all(INJECTORS[fault].kind == "dax" for fault, _ in matrix)

    def test_full_matrix_covers_every_injector(self):
        matrix = campaign_matrix(quick=False)
        faults = {fault for fault, _ in matrix}
        assert faults == set(injector_names())
        # Every dax injector runs under both workloads.
        dax = [name for name in injector_names()
               if INJECTORS[name].kind == "dax"]
        assert len(matrix) == 2 * len(dax) + 1

    def test_cell_seeds_distinct_and_stable(self):
        seeds = {cell_seed_for(0, fault, wl)
                 for fault, wl in campaign_matrix(quick=False)}
        assert len(seeds) == len(campaign_matrix(quick=False))
        assert cell_seed_for(0, "cp-corrupt", "seq-write") == \
            cell_seed_for(0, "cp-corrupt", "seq-write")
        assert cell_seed_for(0, "cp-corrupt", "seq-write") != \
            cell_seed_for(1, "cp-corrupt", "seq-write")


class TestQuickCampaign:
    def test_every_cell_recovers_cleanly(self, quick_result):
        assert quick_result.ok
        for cell in quick_result.cells:
            assert cell.violations == 0, cell.fault
            assert cell.lost == 0, cell.fault
            assert cell.injected > 0, cell.fault

    def test_faults_are_detected(self, quick_result):
        for cell in quick_result.cells:
            assert cell.detected > 0, cell.fault

    def test_deterministic_for_same_seed(self, quick_result):
        again = run_campaign(seed=0, quick=True)
        assert render_report(again) == render_report(quick_result)

    def test_seed_changes_the_report(self, quick_result):
        other = run_campaign(seed=1, quick=True)
        assert render_report(other) != render_report(quick_result)


class TestReportSchema:
    def test_render_validates_clean(self, quick_result):
        payload = json.loads(render_report(quick_result))
        assert payload["schema"] == SCHEMA
        assert check(SHAPE, payload) == []
        assert payload["totals"]["cells"] == len(quick_result.cells)

    def test_timestamp_is_injected(self, quick_result):
        payload = json.loads(
            render_report(quick_result, timestamp="20260101-000000"))
        assert payload["generated_at"] == "20260101-000000"
        assert check(SHAPE, payload) == []

    def test_validator_rejects_mutations(self, quick_result):
        payload = json.loads(render_report(quick_result))
        payload["totals"]["injected"] = -1
        assert check(SHAPE, payload)
        payload = json.loads(render_report(quick_result))
        del payload["cells"][0]["recovered"]
        assert check(SHAPE, payload)
        payload = json.loads(render_report(quick_result))
        payload["schema"] = "repro.faults/999"
        assert check(SHAPE, payload)


class TestCLI:
    def test_run_quick_writes_report(self, tmp_path, capsys):
        rc = main(["faults", "run", "--quick", "--seed", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        reports = list(tmp_path.glob("FAULTS_*.json"))
        assert len(reports) == 1
        payload = json.loads(reports[0].read_text())
        assert check(SHAPE, payload) == []
        out = capsys.readouterr().out
        assert "campaign clean" in out

    def test_list_prints_registry(self, capsys):
        rc = main(["faults", "list"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in injector_names():
            assert name in out


class TestOnly:
    """The ``--only`` matrix restriction (CLI and library)."""

    def test_restricted_campaign_keeps_cell_seeds(self, quick_result):
        restricted = run_campaign(seed=0, quick=True, only=["cp-corrupt"])
        assert {cell.fault for cell in restricted.cells} == {"cp-corrupt"}
        full_cells = {(c.fault, c.workload): c for c in quick_result.cells}
        for cell in restricted.cells:
            twin = full_cells[(cell.fault, cell.workload)]
            # Same cell, same seed, same outcome as in the full matrix.
            assert (cell.injected, cell.detected, cell.recovered,
                    cell.lost) == (twin.injected, twin.detected,
                                   twin.recovered, twin.lost)

    def test_unknown_injector_raises(self):
        with pytest.raises(ValueError, match="no-such-fault"):
            run_campaign(seed=0, quick=True, only=["no-such-fault"])

    def test_cli_only_runs_the_named_cells(self, tmp_path, capsys):
        rc = main(["faults", "run", "--quick", "--seed", "0",
                   "--only", "cp-corrupt",
                   "--out", str(tmp_path)])
        assert rc == 0
        [report] = list(tmp_path.glob("FAULTS_*.json"))
        payload = json.loads(report.read_text())
        assert {cell["fault"] for cell in payload["cells"]} == {"cp-corrupt"}
        assert "only cp-corrupt" in capsys.readouterr().out

    def test_cli_unknown_id_lists_the_known_ones(self, tmp_path, capsys):
        rc = main(["faults", "run", "--quick", "--only", "bogus,cp-corrupt",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown fault ids: bogus" in err
        for name in injector_names():
            assert name in err
        assert not list(tmp_path.glob("FAULTS_*.json"))

    def test_fault_outside_the_matrix_is_a_usage_error(self, tmp_path,
                                                        capsys):
        # ca-noise is a real fault id, but only the full matrix runs it:
        # a quick campaign restricted to it would run zero cells.
        with pytest.raises(ConfigError, match="select no cell"):
            run_campaign(seed=0, quick=True, only=["ca-noise"])
        rc = main(["faults", "run", "--quick", "--only", "ca-noise",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "select no cell of the quick matrix" in \
            capsys.readouterr().err
        assert not list(tmp_path.glob("FAULTS_*.json"))

    def test_empty_only_is_a_usage_error(self, tmp_path):
        with pytest.raises(ConfigError, match="select no cell"):
            run_campaign(seed=0, quick=True, only=[])
        rc = main(["faults", "run", "--quick", "--only", ",",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert not list(tmp_path.glob("FAULTS_*.json"))
