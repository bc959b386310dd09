"""Coverage for remaining corners: CLI report, config builds, access
replay on NVDIMM-C."""

import json
import os

from repro.analysis.results import ExperimentRecord
from repro.device.nvdimmc import NVDIMMCSystem
from repro.experiments.common import asic_firmware
from repro.units import PAGE_4K, kb, mb


def asic() -> dict:
    """The §VII-C ASIC what-if, as ``experiments.ablations`` builds it."""
    return {"firmware": asic_firmware(), "nand_phy_mhz": 500,
            "use_merged_commands": True}


class TestConfigBuilds:
    def test_asic_config_builds_and_runs(self):
        system = NVDIMMCSystem(cache_bytes=mb(16), device_bytes=mb(120),
                               **asic())
        assert system.driver.use_merged_commands
        assert system.nvmc.firmware.step_ps == 0
        end = system.op(0, kb(4), False, 0)
        assert end > 0

    def test_experiment_config_uncached_vs_asic(self):
        """The ASIC configuration beats the PoC on the miss path."""
        def miss_latency(**config):
            system = NVDIMMCSystem(cache_bytes=mb(4), device_bytes=mb(30),
                                   **config)
            nslots = system.region.num_slots
            system.nand.preload(nslots + 1, b"\x11" * PAGE_4K)
            t = 0
            for page in range(nslots):
                _, t = system.driver.fault(page, t, True)
            start = max(t, system.nvmc.ready_ps)
            end = system.op((nslots + 1) * PAGE_4K, kb(4), False, start)
            return end - start

        assert miss_latency(**asic()) < miss_latency()


def replay(system, accesses) -> int:
    """Drive ``(offset, nbytes, is_write)`` accesses through a DAX
    system from its time floor; returns the end time."""
    t = system.now_floor_ps
    for offset, nbytes, is_write in accesses:
        t = system.op(offset, nbytes, is_write, t)
    return t


class TestTraceReplayOnNvdc:
    def test_replay_exercises_the_miss_path(self):
        system = NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(16))
        end = replay(system, [(i * PAGE_4K, kb(4), i % 2 == 0)
                              for i in range(20)])
        assert end > 0
        assert system.driver.stats.misses == 20

    def test_replay_respects_now_floor(self):
        system = NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(16))
        first_end = replay(system, [(0, kb(4), False)])
        second_end = replay(system, [(0, kb(4), False)])
        assert second_end >= first_end


class TestCliReport:
    def test_report_writes_files(self, tmp_path, monkeypatch):
        """`python -m repro report` produces the three artefacts.

        Run against a trimmed experiment registry so the test stays
        fast."""
        import repro.experiments.runner as runner_module
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        trimmed = {"fig12": runner_module.ALL_EXPERIMENTS["fig12"],
                   "table1": runner_module.ALL_EXPERIMENTS["table1"]}
        monkeypatch.setattr(runner_module, "ALL_EXPERIMENTS", trimmed)
        assert main(["report"]) == 0
        for name in ("EXPERIMENTS.md", "results.csv", "results.json"):
            assert os.path.exists(tmp_path / name), name
        text = (tmp_path / "EXPERIMENTS.md").read_text()
        assert "## Summary" in text
        assert "fig12" in text

    def test_failed_claim_exits_1_after_writing(self, tmp_path,
                                                monkeypatch, capsys):
        """A failed claim is named on stderr and makes `report` exit 1,
        but only after all three files are written."""
        import repro.experiments.runner as runner_module
        from repro.cli import main

        def stub():
            record = ExperimentRecord("stub", "a claim that fails")
            record.add("value", "x", 2.0, 1.0)
            record.claim("value is at least 2 (paper: 2)", False)
            record.claim("value is positive", True)
            return record

        monkeypatch.chdir(tmp_path)
        trimmed = {"table1": runner_module.ALL_EXPERIMENTS["table1"],
                   "stub": stub}
        monkeypatch.setattr(runner_module, "ALL_EXPERIMENTS", trimmed)
        assert main(["report"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "claim failed: stub: value is at least 2 (paper: 2)"]
        for name in ("EXPERIMENTS.md", "results.csv", "results.json"):
            assert os.path.exists(tmp_path / name), name
        stub_json = json.loads((tmp_path / "results.json").read_text())[1]
        assert stub_json["claims"] == [
            {"text": "value is at least 2 (paper: 2)", "ok": False},
            {"text": "value is positive", "ok": True}]
        markdown = (tmp_path / "EXPERIMENTS.md").read_text()
        assert "| stub — a claim that fails | 1 | 100 % | 1/2 |" in markdown
        assert ("- claim FAILED: value is at least 2 (paper: 2)"
                in markdown)
        assert main(["experiments", "stub"]) == 1
        assert main(["experiments", "table1"]) == 0
