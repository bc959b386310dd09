"""The whole-program static pass (``repro.check.xstatic``).

Three layers of coverage:

* golden fixture snippets — one positive and one negative twin per
  rule REPRO006–REPRO013, analyzed in isolated temporary trees;
* the real tree — the registry must account for every FaultClock hook
  site and every sanitizer-expected event, and every finding must be a
  justified entry in the committed baseline (the deliberately
  process-wide meters documented in ``repro.sim.snapshot``);
* the CLI — ``--format json``, ``--baseline`` write/compare semantics,
  ``# noqa`` scoping, and the committed ``docs/hook_registry.md``
  staying in sync with the extractor.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.cli import main as check_main
from repro.check.xstatic import (BASELINE_SCHEMA, REPORT_SCHEMA,
                                 analyze_tree, load_baseline,
                                 render_baseline, render_registry_markdown,
                                 split_by_baseline)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_TREE = REPO_ROOT / "src" / "repro"

#: A hook-site visit that marks the enclosing module crash-exposed.
HOOK_LINE = 'self.fault_clock.check(0, "dev.op")\n'


def _analyze(tmp_path: Path, files: dict[str, str]):
    """Write a fixture package tree and run the pass over it."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return analyze_tree(root)


def _codes(report) -> list[str]:
    return [f.code for f in report.findings]


# -- REPRO006: finally-cleared journal state on crash-exposed paths ---------------


REPRO006_POSITIVE = """\
class Driver:
    def writeback(self):
        self.fault_clock.check(0, "dev.op")
        self.inflight_journal = (1, 2)
        try:
            self.issue()
        except MediaError:
            raise
        finally:
            self.inflight_journal = None
"""


def test_repro006_flags_unguarded_finally_clear(tmp_path):
    report = _analyze(tmp_path, {"sim/driver.py": REPRO006_POSITIVE})
    assert _codes(report) == ["REPRO006"]
    assert "inflight_journal" in report.findings[0].message


def test_repro006_negative_rollback_handler(tmp_path):
    guarded = REPRO006_POSITIVE.replace(
        "except MediaError:",
        "except (MediaError, PowerLossInterrupt):")
    report = _analyze(tmp_path, {"sim/driver.py": guarded})
    assert _codes(report) == []


def test_repro006_negative_unexposed_module(tmp_path):
    # The same finally-clear in a module no power cut can reach is fine.
    source = REPRO006_POSITIVE.replace(HOOK_LINE.strip(), "pass")
    report = _analyze(tmp_path, {"sim/driver.py": source})
    assert _codes(report) == []


def test_repro006_exposure_propagates_over_imports(tmp_path):
    # devmod has the hook site; driver imports it, so a cut can unwind
    # through driver's frames: its finally-clear is flagged.
    driver = ("from repro.sim.devmod import issue\n\n\n"
              + REPRO006_POSITIVE.replace(
                  "        " + HOOK_LINE.strip() + "\n", ""))
    report = _analyze(tmp_path, {
        "sim/devmod.py": ("class Dev:\n    def issue(self):\n        "
                          + HOOK_LINE),
        "sim/driver.py": driver,
    })
    assert _codes(report) == ["REPRO006"]
    assert report.findings[0].path == "sim/driver.py"


# -- REPRO007: mutation between program and its OOB stamp -------------------------


REPRO007_POSITIVE = """\
class FTL:
    def append(self, lpn, data, stamp):
        self.fault_clock.tick("ftl.program")
        self.die.program(data)
        self.l2p_map[lpn] = 7
        self.die.write_oob(stamp)
"""


def test_repro007_flags_mutation_in_program_stamp_gap(tmp_path):
    report = _analyze(tmp_path, {"nand/ftl.py": REPRO007_POSITIVE})
    assert _codes(report) == ["REPRO007"]
    assert "l2p_map" in report.findings[0].message


def test_repro007_negative_inline_oob_stamp(tmp_path):
    atomic = REPRO007_POSITIVE.replace(
        "self.die.program(data)", "self.die.program(data, oob=stamp)")
    report = _analyze(tmp_path, {"nand/ftl.py": atomic})
    assert _codes(report) == []


# -- REPRO008: unordered iteration feeding trace/schedule -------------------------


REPRO008_POSITIVE = """\
class Scrubber:
    def __init__(self):
        self._dirty = set()

    def flush(self, engine):
        for page in self._dirty:
            engine.call_at(0, page)
"""


def test_repro008_flags_set_iteration_feeding_scheduler(tmp_path):
    report = _analyze(tmp_path, {"sim/scrub.py": REPRO008_POSITIVE})
    assert _codes(report) == ["REPRO008"]


def test_repro008_flags_local_set_feeding_emit(tmp_path):
    source = """\
def run(tracer):
    pending = set()
    for page in pending:
        tracer.emit(0, "x.page", "seen", page=page)
"""
    report = _analyze(tmp_path, {"sim/run.py": source})
    assert _codes(report) == ["REPRO008"]


def test_repro008_negative_sorted_iteration(tmp_path):
    source = REPRO008_POSITIVE.replace("in self._dirty",
                                       "in sorted(self._dirty)")
    report = _analyze(tmp_path, {"sim/scrub.py": source})
    assert _codes(report) == []


# -- REPRO009: id() as an ordering key --------------------------------------------


def test_repro009_flags_id_sort_key(tmp_path):
    source = "def order(items):\n    return sorted(items, key=id)\n"
    report = _analyze(tmp_path, {"sim/order.py": source})
    assert _codes(report) == ["REPRO009"]


def test_repro009_flags_id_mapping_key(tmp_path):
    source = ("class T:\n    def note(self, obj):\n"
              "        self.seen[id(obj)] = True\n")
    report = _analyze(tmp_path, {"sim/note.py": source})
    assert _codes(report) == ["REPRO009"]


def test_repro009_negative_stable_field_key(tmp_path):
    source = ("def order(items):\n"
              "    return sorted(items, key=lambda item: item.lpn)\n")
    report = _analyze(tmp_path, {"sim/order.py": source})
    assert _codes(report) == []


# -- REPRO010: unpinned report serialisation --------------------------------------


def test_repro010_flags_unsorted_json_dump(tmp_path):
    source = ("import json\n\n\ndef render(payload):\n"
              "    return json.dumps(payload, indent=2)\n")
    report = _analyze(tmp_path, {"faults/report.py": source})
    assert _codes(report) == ["REPRO010"]


def test_repro010_negative_sorted_keys(tmp_path):
    source = ("import json\n\n\ndef render(payload):\n"
              "    return json.dumps(payload, indent=2, sort_keys=True)\n")
    report = _analyze(tmp_path, {"faults/report.py": source})
    assert _codes(report) == []


def test_repro010_noqa_suppression(tmp_path):
    source = ("import json\n\n\ndef render(payload):\n"
              "    return json.dumps(payload)  # noqa: REPRO010\n")
    report = _analyze(tmp_path, {"faults/report.py": source})
    assert _codes(report) == []


# -- REPRO011/REPRO012: registry cross-checks -------------------------------------


def test_repro011_flags_sanitizer_expecting_unknown_event(tmp_path):
    report = _analyze(tmp_path, {
        "sim/model.py": ('def go(self):\n'
                         '    self.tracer.emit(0, "real.event", "ok")\n'),
        "check/sanitizers.py": (
            "def observe(record):\n"
            '    if record.category == "typo.event":\n'
            "        pass\n"),
    })
    assert _codes(report) == ["REPRO011"]
    assert "typo.event" in report.findings[0].message


def test_repro011_negative_matching_producer(tmp_path):
    report = _analyze(tmp_path, {
        "sim/model.py": ('def go(self):\n'
                         '    self.tracer.emit(0, "real.event", "ok")\n'),
        "check/sanitizers.py": (
            "def observe(record):\n"
            '    if record.category == "real.event":\n'
            "        pass\n"),
    })
    assert _codes(report) == []


def test_repro012_flags_cut_targeting_unknown_site(tmp_path):
    report = _analyze(tmp_path, {
        "sim/dev.py": "class D:\n    def op(self):\n        " + HOOK_LINE,
        "faults/arm.py": ('def arm(clock):\n'
                          '    clock.cut_on_visit(3, site="nope.site")\n'),
    })
    assert _codes(report) == ["REPRO012"]


def test_repro012_negative_prefix_match(tmp_path):
    # Cut filters match by prefix, exactly like _Cut.matches_site.
    report = _analyze(tmp_path, {
        "sim/dev.py": "class D:\n    def op(self):\n        " + HOOK_LINE,
        "faults/arm.py": ('def arm(clock):\n'
                          '    clock.cut_on_visit(3, site="dev")\n'),
    })
    assert _codes(report) == []


# -- REPRO013: state outside the snapshot graph -----------------------------------


REPRO013_POSITIVE = """\
import itertools


class Model:
    def snapshot(self):
        return dict(self.state)

    def restore(self, blob):
        self.state = dict(blob)


_TOKEN_MILL = itertools.count()
"""


def test_repro013_flags_uncaptured_module_counter(tmp_path):
    report = _analyze(tmp_path, {"sim/model.py": REPRO013_POSITIVE})
    assert _codes(report) == ["REPRO013"]
    assert "_TOKEN_MILL" in report.findings[0].message


def test_repro013_negative_module_without_snapshot_support(tmp_path):
    # The same counter in a module with no snapshot surface is fine.
    source = REPRO013_POSITIVE.replace("def snapshot", "def dump").replace(
        "def restore", "def load")
    report = _analyze(tmp_path, {"sim/model.py": source})
    assert _codes(report) == []


def test_repro013_negative_counter_covered_by_snapshot_body(tmp_path):
    covered = REPRO013_POSITIVE.replace(
        "return dict(self.state)",
        "return (dict(self.state), next(_TOKEN_MILL))")
    report = _analyze(tmp_path, {"sim/model.py": covered})
    assert _codes(report) == []


def test_repro013_flags_class_level_counter_mutation(tmp_path):
    source = """\
class Engine(SnapshotMixin):
    total_events = 0

    def step(self):
        Engine.total_events += 1
"""
    report = _analyze(tmp_path, {"sim/engine.py": source})
    assert _codes(report) == ["REPRO013"]
    assert "Engine.total_events" in report.findings[0].message


def test_repro013_flags_global_rebind(tmp_path):
    source = """\
_CURRENT = None


class Model(SnapshotMixin):
    def use(self, value):
        global _CURRENT
        _CURRENT = value
"""
    report = _analyze(tmp_path, {"sim/model.py": source})
    assert _codes(report) == ["REPRO013"]
    assert "_CURRENT" in report.findings[0].message


def test_repro013_negative_immutable_module_constant(tmp_path):
    source = REPRO013_POSITIVE.replace(
        "_TOKEN_MILL = itertools.count()", "_LIMIT = 42")
    report = _analyze(tmp_path, {"sim/model.py": source})
    assert _codes(report) == []


# -- the real tree ----------------------------------------------------------------


@pytest.fixture(scope="module")
def tree_report():
    assert SRC_TREE.is_dir()
    return analyze_tree(SRC_TREE)


def test_real_tree_findings_are_all_baselined(tree_report):
    # The only tolerated findings are the REPRO013 entries for the
    # deliberately process-wide meters (documented in repro.sim.snapshot);
    # each one is pinned in the committed baseline, and nothing else is.
    fingerprints = load_baseline(REPO_ROOT / "baselines" / "static.json")
    assert all(f.code == "REPRO013" for f in tree_report.findings)
    assert {f.fingerprint for f in tree_report.findings} == fingerprints


def test_registry_accounts_for_every_fault_clock_hook_site(tree_report):
    registry = tree_report.registry
    assert set(registry.hook_producers) == {
        "engine", "ftl.gc", "ftl.program", "nvmc.cachefill.read",
        "nvmc.writeback.program", "power.drain"}
    assert set(registry.hook_producer_prefixes) == {"nvmc.dma."}


def test_every_cut_site_resolves_against_the_registry(tree_report):
    registry = tree_report.registry
    assert set(registry.hook_consumers) == {
        "nvmc", "nvmc.dma", "nvmc.writeback.program", "power.drain"}
    for site in registry.hook_consumers:
        assert registry.hook_site_resolves(site), site


def test_every_sanitizer_expected_event_resolves(tree_report):
    registry = tree_report.registry
    # The full expected-event surface of the five-sanitizer suite.
    assert set(registry.trace_consumers) >= {
        "power.drain", "ddr.collision", "ddr.cmd", "nvdc.attach",
        "nvdc.dirty", "nvdc.flush", "nvdc.sfence", "nvdc.invalidate",
        "nvmc.dma", "cp.post", "cp.ack", "cp.abandon", "health.scrub",
        "imc.refresh"}
    for name in registry.trace_consumers:
        assert registry.trace_event_resolves(name), name


def test_registry_pins_report_schemas(tree_report):
    assert set(tree_report.registry.schemas) >= {
        "repro.faults/1", "repro.soak/1", "repro.recovery/1"}


def test_committed_hook_registry_doc_is_current(tree_report):
    committed = (REPO_ROOT / "docs" / "hook_registry.md").read_text(
        encoding="utf-8")
    assert committed == render_registry_markdown(tree_report.registry)


def test_committed_baseline_holds_only_justified_meters():
    fingerprints = load_baseline(REPO_ROOT / "baselines" / "static.json")
    assert all("REPRO013" in f for f in fingerprints)
    named = {"_DEFAULT_TRACER", "_OWNER_COUNTER"}
    assert named == {name for name in named
                     for f in fingerprints if name in f}


# -- baseline mechanics -----------------------------------------------------------


def test_baseline_roundtrip_suppresses_known_findings(tmp_path):
    report = _analyze(tmp_path, {
        "faults/report.py": ("import json\n\n\ndef render(payload):\n"
                             "    return json.dumps(payload)\n")})
    assert len(report.findings) == 1
    baseline = tmp_path / "static.json"
    baseline.write_text(render_baseline(report), encoding="utf-8")
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    assert payload["schema"] == BASELINE_SCHEMA
    new, baselined = split_by_baseline(report, load_baseline(baseline))
    assert new == [] and len(baselined) == 1


def test_baseline_fingerprint_survives_line_churn(tmp_path):
    source = ("import json\n\n\ndef render(payload):\n"
              "    return json.dumps(payload)\n")
    first = _analyze(tmp_path, {"faults/report.py": source})
    shifted = _analyze(tmp_path, {
        "faults/report.py": "# a new leading comment\n" + source})
    assert (first.findings[0].fingerprint
            == shifted.findings[0].fingerprint)
    assert first.findings[0].line != shifted.findings[0].line


# -- CLI --------------------------------------------------------------------------


def _fixture_root(tmp_path: Path) -> Path:
    root = tmp_path / "repro"
    path = root / "faults" / "report.py"
    path.parent.mkdir(parents=True)
    path.write_text("import json\n\n\ndef render(p):\n"
                    "    return json.dumps(p)\n", encoding="utf-8")
    return root


def test_cli_static_exit_codes(tmp_path, capsys):
    root = _fixture_root(tmp_path)
    assert check_main(["--static", "--root", str(root)]) == 1
    assert "REPRO010" in capsys.readouterr().out
    assert check_main(["--static", "--root", str(SRC_TREE), "--baseline",
                       str(REPO_ROOT / "baselines" / "static.json")]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_static_json_format(tmp_path, capsys):
    root = _fixture_root(tmp_path)
    assert check_main(["--static", "--root", str(root),
                       "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == REPORT_SCHEMA
    assert payload["summary"] == {"total": 1, "baselined": 0, "new": 1}
    assert payload["findings"][0]["code"] == "REPRO010"
    assert payload["findings"][0]["baselined"] is False


def test_cli_static_json_is_checked_against_its_shape(tmp_path, capsys,
                                                      monkeypatch):
    from repro.check import xstatic
    to_dict = xstatic.StaticReport.to_dict

    def without_registry(self):
        payload = to_dict(self)
        del payload["registry"]
        return payload

    monkeypatch.setattr(xstatic.StaticReport, "to_dict", without_registry)
    root = _fixture_root(tmp_path)
    assert check_main(["--static", "--root", str(root),
                       "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("report schema problem: missing report keys: ['registry']"
            in captured.err)


def test_cli_baseline_write_then_compare(tmp_path, capsys):
    root = _fixture_root(tmp_path)
    baseline = tmp_path / "static.json"
    assert check_main(["--static", "--root", str(root),
                       "--baseline", str(baseline),
                       "--write-baseline"]) == 0
    capsys.readouterr()
    # Baselined findings no longer fail the run...
    assert check_main(["--static", "--root", str(root),
                       "--baseline", str(baseline)]) == 0
    assert "baselined finding(s) suppressed" in capsys.readouterr().out
    # ...but a fresh finding still does.
    extra = root / "faults" / "extra.py"
    extra.write_text("import json\n\n\ndef more(p):\n"
                     "    return json.dumps(p)\n", encoding="utf-8")
    assert check_main(["--static", "--root", str(root),
                       "--baseline", str(baseline)]) == 1


def test_cli_rejects_bad_baseline(tmp_path, capsys):
    root = _fixture_root(tmp_path)
    baseline = tmp_path / "bad.json"
    baseline.write_text('{"schema": "wrong"}', encoding="utf-8")
    assert check_main(["--static", "--root", str(root),
                       "--baseline", str(baseline)]) == 2
    assert "bad baseline" in capsys.readouterr().err


def test_cli_registry_out_writes_markdown(tmp_path, capsys):
    out = tmp_path / "hook_registry.md"
    assert check_main(["--static", "--root", str(SRC_TREE),
                       "--baseline",
                       str(REPO_ROOT / "baselines" / "static.json"),
                       "--registry-out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8").startswith(
        "# Hook-site and trace-event registry")


def test_cli_requires_static_or_subcommand(capsys):
    assert check_main([]) == 2
    assert "--static" in capsys.readouterr().err


def test_top_level_cli_integration(capsys):
    from repro.cli import main as repro_main
    assert repro_main(["check", "--static", "--root", str(SRC_TREE),
                       "--baseline",
                       str(REPO_ROOT / "baselines" / "static.json")]) == 0
    assert "clean" in capsys.readouterr().out


# -- regression tests for the true positives this pass found ----------------------


def test_export_to_json_is_key_sorted():
    from repro.analysis.export import to_json
    from repro.analysis.results import ExperimentRecord
    record = ExperimentRecord("fig8", "latency")
    record.add("read", "ns", 1.0, 2.0)
    text = to_json([record])
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


def test_experiment_record_to_json_is_key_sorted():
    from repro.analysis.results import ExperimentRecord
    record = ExperimentRecord("fig8", "latency")
    record.add("read", "ns", 1.0, 2.0)
    text = record.to_json()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


def test_coherence_finalize_order_is_hash_seed_independent():
    from repro.check.sanitizers import CoherenceSanitizer
    from repro.sim.trace import TraceRecord

    sanitizer = CoherenceSanitizer()
    for owner in ("zzz", "aaa"):
        sanitizer.observe(TraceRecord(0, "nvdc.attach", "attach",
                                      {"owner": owner, "coherent": True}))
        sanitizer.observe(TraceRecord(1, "nvmc.dma", "fill",
                                      {"owner": owner, "windows": (
                                          ("fill", 0, 4096, 4096, 4096, 1,
                                           900, 100),)}))
    sanitizer.finalize()
    owners = [v.record.fields["owner"] for v in sanitizer.violations]
    assert owners == ["aaa", "zzz"]
