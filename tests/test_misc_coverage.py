"""Coverage for remaining corners: CLI report, config builds, trace
replay on NVDIMM-C."""

import os

from repro.config import ASIC_CONFIG, EXPERIMENT_CONFIG
from repro.units import PAGE_4K, kb, mb
from repro.workloads.trace import Access, AccessTrace


class TestConfigBuilds:
    def test_asic_config_builds_and_runs(self):
        system = ASIC_CONFIG.scaled(4).build()
        assert system.driver.use_merged_commands
        assert system.nvmc.firmware.step_ps == 0
        end = system.op(0, kb(4), False, 0)
        assert end > 0

    def test_experiment_config_uncached_vs_asic(self):
        """The ASIC configuration beats the PoC on the miss path."""
        def miss_latency(config):
            system = config.scaled(16).build()
            nslots = system.region.num_slots
            system.nand.preload(nslots + 1, b"\x11" * PAGE_4K)
            t = 0
            for page in range(nslots):
                _, t = system.driver.fault(page, t, True)
            start = max(t, system.nvmc.ready_ps)
            end = system.op((nslots + 1) * PAGE_4K, kb(4), False, start)
            return end - start

        assert miss_latency(ASIC_CONFIG) < miss_latency(EXPERIMENT_CONFIG)


class TestTraceReplayOnNvdc:
    def test_replay_exercises_the_miss_path(self):
        from repro.device.nvdimmc import NVDIMMCSystem
        system = NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(16))
        trace = AccessTrace([Access(i * PAGE_4K, kb(4), i % 2 == 0)
                             for i in range(20)])
        end = trace.replay(system)
        assert end > 0
        assert system.driver.stats.misses == 20

    def test_replay_respects_now_floor(self):
        from repro.device.nvdimmc import NVDIMMCSystem
        system = NVDIMMCSystem(cache_bytes=mb(2), device_bytes=mb(16))
        trace = AccessTrace([Access(0, kb(4), False)])
        first_end = trace.replay(system)
        second_end = trace.replay(system)
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
