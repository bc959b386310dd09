"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fio_defaults(self):
        args = build_parser().parse_args(["fio"])
        assert args.device == "nvdc"
        assert args.rw == "randread"
        assert args.bs == 4096

    def test_unknown_experiment_id_fails(self):
        assert main(["experiments", "fig99"]) == 2

    def test_unknown_experiment_id_names_valid_ids(self, capsys):
        main(["experiments", "fig99"])
        err = capsys.readouterr().err
        assert "fig99" in err
        assert "valid ids" in err

    def test_jobs_flag(self):
        args = build_parser().parse_args(["experiments", "--jobs", "auto"])
        assert args.jobs == "auto"
        args = build_parser().parse_args(["report", "--jobs", "4"])
        assert args.jobs == "4"


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "NVDIMM-C" in out
        assert "STT-MRAM" in out

    def test_fio_pmem(self, capsys):
        assert main(["fio", "--device", "pmem", "--nops", "200"]) == 0
        out = capsys.readouterr().out
        assert "KIOPS" in out

    def test_fio_nvdc_multithread(self, capsys):
        assert main(["fio", "--threads", "2", "--nops", "200"]) == 0
        assert "MB/s" in capsys.readouterr().out

    def test_validate(self, capsys):
        assert main(["validate", "--iterations", "1"]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_experiments_single(self, capsys):
        assert main(["experiments", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "Hypothetical" in out

    def test_experiments_parallel_jobs(self, capsys):
        assert main(["experiments", "fig12", "crosscheck",
                     "--jobs", "2"]) == 0
        assert "2 workers" in capsys.readouterr().out


#: command line -> the one stderr line it must exit 2 with
USAGE_ERRORS = {
    "fio --threads 0": "numjobs must be >= 1, got 0",
    "fio --bs 0": "block size must be in (0, 33554432], got 0",
    "fio --nops 0": "nops must be >= 1, got 0",
    "validate --iterations 0": "iterations must be >= 1, got 0",
    "validate --iterations -1": "iterations must be >= 1, got -1",
}


class TestUsageErrors:
    """A bad option value exits 2 and names the value on stderr."""

    @pytest.mark.parametrize("command", list(USAGE_ERRORS))
    def test_exits_2_naming_the_value(self, command, capsys):
        assert main(command.split()) == 2
        err = capsys.readouterr().err
        assert err == USAGE_ERRORS[command] + "\n"
        assert "Traceback" not in err

    def test_report_bad_jobs_writes_nothing(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--jobs", "zero"]) == 2
        err = capsys.readouterr().err
        assert err == "jobs must be an integer or 'auto', got 'zero'\n"
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["crash --quick --no-snapshot",
                                     "soak --no-snapshot",
                                     "age run --no-snapshot"])
def test_no_snapshot_is_an_unrecognised_argument(command, capsys):
    """crash, soak and age run have one way to run: forked from a
    snapshot, with no rerun-from-zero option."""
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-snapshot" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--capacity 10", "--strict"])
def test_check_run_flag_is_an_unrecognised_argument(flag, capsys):
    """check run has one way to observe a run: its sanitizers collect
    every violation, with no record archive to bound and no raise mode."""
    with pytest.raises(SystemExit) as exc:
        main(["check", "run", "--sanitize", "fig8", *flag.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
