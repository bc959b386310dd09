"""Tests for the repro.check.lint AST passes and the check CLI."""

from pathlib import Path


from repro.check.lint import LintFinding, lint_file, lint_paths
from repro.cli import main

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def plant(tmp_path: Path, source: str, name: str = "mod.py",
          subdir: str = "sim") -> Path:
    """Write a module into a simulation-scoped tmp package."""
    pkg = tmp_path / subdir
    pkg.mkdir(parents=True, exist_ok=True)
    path = pkg / name
    path.write_text(source)
    return path


def codes(findings: "list[LintFinding]") -> list[str]:
    return [f.code for f in findings]


class TestDeterminismRule:
    def test_time_time_flagged(self, tmp_path):
        path = plant(tmp_path, "import time\nnow = time.time()\n")
        assert codes(lint_file(path)) == ["REPRO001"]

    def test_datetime_now_flagged(self, tmp_path):
        path = plant(tmp_path,
                     "import datetime\nstamp = datetime.datetime.now()\n")
        assert codes(lint_file(path)) == ["REPRO001"]

    def test_module_level_random_flagged(self, tmp_path):
        path = plant(tmp_path, "import random\nx = random.randint(0, 9)\n")
        assert codes(lint_file(path)) == ["REPRO001"]

    def test_seeded_random_instance_ok(self, tmp_path):
        path = plant(tmp_path,
                     "import random\nrng = random.Random(7)\n"
                     "x = rng.randint(0, 9)\n")
        assert lint_file(path) == []

    def test_out_of_scope_dir_ignored(self, tmp_path):
        path = plant(tmp_path, "import time\nnow = time.time()\n",
                     subdir="analysis")
        assert lint_file(path) == []


class TestUnitHygieneRule:
    def test_float_literal_into_ps_flagged(self, tmp_path):
        path = plant(tmp_path, "delay_ps = 1.5 * 1000\n")
        assert codes(lint_file(path)) == ["REPRO002"]

    def test_true_division_into_ns_flagged(self, tmp_path):
        path = plant(tmp_path, "def f(a, b):\n    t_ns = a / b\n    return t_ns\n")
        assert codes(lint_file(path)) == ["REPRO002"]

    def test_augmented_division_flagged(self, tmp_path):
        path = plant(tmp_path, "def f(t_ps):\n    t_ps /= 2\n    return t_ps\n")
        assert codes(lint_file(path)) == ["REPRO002"]

    def test_floor_division_ok(self, tmp_path):
        path = plant(tmp_path, "def f(a, b):\n    t_ps = a // b\n    return t_ps\n")
        assert lint_file(path) == []

    def test_unit_converter_boundary_ok(self, tmp_path):
        path = plant(tmp_path,
                     "from repro.units import us\nt_ps = us(1.5)\n"
                     "u_ps = round(3 / 2)\n")
        assert lint_file(path) == []

    def test_float_annotation_opt_out(self, tmp_path):
        path = plant(tmp_path, "rate_ps: float = 0.25 * 4\n")
        assert lint_file(path) == []

    def test_noqa_suppresses(self, tmp_path):
        path = plant(tmp_path, "delay_ps = 1.5  # noqa: REPRO002\n")
        assert lint_file(path) == []


class TestCalibrationRule:
    def test_uncited_constant_flagged(self, tmp_path):
        path = plant(tmp_path,
                     "class C:\n"
                     "    # just a tunable\n"
                     "    knob_ps: int = 17\n",
                     name="calibration.py", subdir="perf")
        found = lint_file(path)
        assert codes(found) == ["REPRO003"]
        assert "knob_ps" in found[0].message

    def test_cited_constant_ok(self, tmp_path):
        path = plant(tmp_path,
                     "class C:\n"
                     "    # anchored to Fig. 8 (646 KIOPS)\n"
                     "    knob_ps: int = 17\n"
                     "    other_ps: int = 3\n",
                     name="calibration.py", subdir="perf")
        assert lint_file(path) == []

    def test_uncited_block_disarms(self, tmp_path):
        path = plant(tmp_path,
                     "class C:\n"
                     "    # anchored to Fig. 8\n"
                     "    knob_ps: int = 17\n"
                     "    # a new section without a citation\n"
                     "    other_ps: int = 3\n",
                     name="calibration.py", subdir="perf")
        found = lint_file(path)
        assert codes(found) == ["REPRO003"]
        assert "other_ps" in found[0].message

    def test_repo_calibration_is_cited(self):
        assert lint_file(REPO_SRC / "perf" / "calibration.py") == []


class TestTreeAndCli:
    def test_repo_tree_is_clean(self):
        assert lint_paths([REPO_SRC]) == []

    def test_cli_clean_tree_exits_zero(self, capsys):
        assert main(["check", "lint", str(REPO_SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_seeded_violation_exits_nonzero(self, tmp_path, capsys):
        planted = plant(tmp_path, "import time\nt = time.time()\n")
        assert main(["check", "lint", str(planted)]) == 1
        out = capsys.readouterr().out
        assert "REPRO001" in out

    def test_cli_missing_path_exits_two(self, tmp_path):
        assert main(["check", "lint", str(tmp_path / "nope.py")]) == 2

    def test_findings_sorted_and_located(self, tmp_path):
        planted = plant(tmp_path,
                        "import time\n"
                        "b_ps = 1.5\n"
                        "t = time.time()\n")
        found = lint_paths([tmp_path])
        assert [f.line for f in found] == sorted(f.line for f in found)
        rendered = str(found[0])
        assert str(planted) in rendered and ":2:" in rendered
