"""``python -m repro check``: lint, static analysis, sanitized runs.

Modes:

* ``lint [paths...]`` — run the per-module AST invariant passes
  (default over ``src/repro``, falling back to the installed ``repro``
  package when no source tree is present).  Exits 1 when findings
  exist.
* ``--static`` — run the whole-program pass
  (:mod:`repro.check.xstatic`): hook-site/trace-event registry
  extraction with producer/consumer cross-checks (REPRO011/012),
  crash-safety dataflow rules (REPRO006/007) and determinism rules
  (REPRO008/009/010).  ``--format json`` emits a machine-readable
  report, checked against ``xstatic.SHAPE`` first (a problem exits 2);
  ``--baseline FILE`` suppresses previously accepted findings
  (``--write-baseline`` records the current findings into it); the
  exit status is non-zero only for non-baselined findings.
  ``--registry-out FILE`` writes the generated registry markdown
  (``docs/hook_registry.md`` in this repo).
* ``run --sanitize <experiment> [...]`` — execute experiments with an
  enabled ambient tracer and the full sanitizer suite attached; reports
  every violation on stderr and exits 1 when there is one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _package_root() -> Path:
    import repro
    package_dir = Path(repro.__file__).resolve().parent
    src_tree = Path.cwd() / "src" / "repro"
    return src_tree if src_tree.is_dir() else package_dir


def _default_lint_paths() -> list[Path]:
    return [_package_root()]


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.check.lint import lint_paths
    paths = [Path(p) for p in args.paths] or _default_lint_paths()
    for path in paths:
        if not path.exists():
            print(f"repro check lint: no such path: {path}",
                  file=sys.stderr)
            return 2
    findings = lint_paths(paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"repro check lint: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print("repro check lint: clean")
    return 0


def cmd_static(args: argparse.Namespace) -> int:
    from repro.check.xstatic import (SHAPE, analyze_tree, load_baseline,
                                     render_baseline,
                                     render_registry_markdown,
                                     split_by_baseline)
    from repro.report import check
    root = Path(args.root) if args.root else _package_root()
    if not root.is_dir():
        print(f"repro check --static: no such package tree: {root}",
              file=sys.stderr)
        return 2
    report = analyze_tree(root)
    if args.registry_out:
        Path(args.registry_out).write_text(
            render_registry_markdown(report.registry), encoding="utf-8")
        print(f"registry written to {args.registry_out}")
    if args.write_baseline:
        if not args.baseline:
            print("repro check --static: --write-baseline requires "
                  "--baseline FILE", file=sys.stderr)
            return 2
        Path(args.baseline).write_text(render_baseline(report),
                                       encoding="utf-8")
        print(f"baseline written to {args.baseline} "
              f"({len(report.findings)} finding(s) recorded)")
        return 0
    new, baselined = report.findings, []
    if args.baseline:
        try:
            fingerprints = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"repro check --static: bad baseline: {exc}",
                  file=sys.stderr)
            return 2
        new, baselined = split_by_baseline(report, fingerprints)
    if args.format == "json":
        payload = report.to_dict()
        suppressed = {f.fingerprint for f in baselined}
        for entry in payload["findings"]:
            entry["baselined"] = entry["fingerprint"] in suppressed
        payload["summary"] = {
            "total": len(report.findings),
            "baselined": len(baselined),
            "new": len(new),
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        problems = check(SHAPE, json.loads(text))
        if problems:
            for problem in problems:
                print(f"report schema problem: {problem}", file=sys.stderr)
            return 2
        print(text)
    else:
        for finding in new:
            print(finding)
        registry = report.registry
        hook_sites = (len(registry.hook_producers)
                      + len(registry.hook_producer_prefixes))
        trace_events = (len(registry.trace_producers)
                        + len(registry.trace_producer_prefixes))
        print(f"repro check --static: {hook_sites} hook sites, "
              f"{trace_events} trace events, "
              f"{len(registry.schemas)} schemas")
        if baselined:
            print(f"{len(baselined)} baselined finding(s) suppressed")
        if new:
            print(f"repro check --static: {len(new)} new finding(s)",
                  file=sys.stderr)
        else:
            print("repro check --static: clean")
    return 1 if new else 0


def _cmd_check_default(args: argparse.Namespace) -> int:
    """The ``check`` command without a subcommand: ``--static`` or help."""
    if args.static:
        return cmd_static(args)
    print("repro check: choose a subcommand (lint, run) or pass --static",
          file=sys.stderr)
    return 2


def cmd_run(args: argparse.Namespace) -> int:
    from repro.check.sanitizer import default_suite
    from repro.experiments.runner import ALL_EXPERIMENTS
    from repro.sim.trace import Tracer, use_tracer

    unknown = set(args.experiments) - set(ALL_EXPERIMENTS)
    if unknown:
        print(f"unknown experiment ids: {sorted(unknown)}; "
              f"available: {sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2

    tracer = Tracer(enabled=True)
    suite = default_suite()
    with use_tracer(tracer), suite.attach(tracer):
        for exp_id in args.experiments:
            print(ALL_EXPERIMENTS[exp_id]())
    violations = suite.violations
    if violations:
        print(f"\n{len(violations)} sanitizer violation(s):",
              file=sys.stderr)
        print(suite.report(), file=sys.stderr)
        return 1
    print("sanitizers clean")
    return 0


def build_parser(sub_or_none: "argparse._SubParsersAction | None" = None
                 ) -> argparse.ArgumentParser:
    """Build the ``check`` parser, standalone or under a parent CLI."""
    if sub_or_none is None:
        parser = argparse.ArgumentParser(prog="repro check")
    else:
        parser = sub_or_none.add_parser(
            "check", help="sanitizers, lint and whole-program static "
                          "analysis")
    parser.add_argument("--static", action="store_true",
                        help="run the whole-program static pass "
                             "(registry cross-checks, REPRO006-012)")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="package tree to analyze "
                             "(default: src/repro or the installed "
                             "package)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="static findings output format")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="suppression baseline: findings recorded "
                             "in FILE do not fail the run")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record the current static findings into "
                             "--baseline FILE and exit 0")
    parser.add_argument("--registry-out", default=None, metavar="FILE",
                        help="write the extracted hook/trace registry "
                             "as markdown to FILE")
    parser.set_defaults(fn=_cmd_check_default)
    sub = parser.add_subparsers(dest="check_command", required=False)

    p_lint = sub.add_parser("lint", help="AST invariant passes")
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories (default: src/repro)")
    p_lint.set_defaults(fn=cmd_lint)

    p_run = sub.add_parser("run", help="sanitized experiment run")
    p_run.add_argument("--sanitize", dest="experiments", action="append",
                       required=True, metavar="EXPERIMENT",
                       help="experiment id to run (repeatable)")
    p_run.set_defaults(fn=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
