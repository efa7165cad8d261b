"""Command-line driver: ``python -m repro.staticcheck [paths...]``.

Exit codes: ``0`` when the analysis exactly matches the committed
baseline (or is clean), ``1`` when there are new findings *or* stale
baseline entries, ``2`` for usage errors and unparsable sources.  The
baseline is resolved from ``--baseline``, then ``[tool.repro-
staticcheck] baseline`` relative to the nearest ``pyproject.toml``,
then an empty baseline (every finding is new).

``--write-baseline`` re-records the current unsuppressed findings and
exits 0 — the accept-current-debt workflow described in
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.staticcheck.analyzer import analyze
from repro.staticcheck.baseline import Baseline
from repro.staticcheck.config import find_config
from repro.staticcheck.findings import ALL_SC_RULES
from repro.staticcheck.report import (render_json, render_sarif,
                                      render_text)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.staticcheck`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="Whole-program static verifier: determinism, "
                    "charge coverage, trust-boundary taint.")
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline file (default: from [tool.repro-staticcheck])")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record current findings as the accepted baseline")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline; exit 1 on any finding")
    parser.add_argument(
        "--disable", action="append", default=[], metavar="RULE",
        help="disable a rule (repeatable), e.g. --disable SC005")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(ALL_SC_RULES.items()):
            print(f"{rule}  {desc}")
        return 0

    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    config = find_config(paths[0])
    if args.disable:
        config.disable = tuple(config.disable) + tuple(args.disable)

    try:
        findings = analyze(paths, config)
    except SyntaxError as exc:
        print(f"error: cannot parse {exc.filename}:{exc.lineno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2

    if args.no_baseline:
        delta = Baseline().delta(findings)
    else:
        baseline_path = args.baseline or config.baseline_path()
        if args.write_baseline:
            if baseline_path is None:
                print("error: no baseline path (pass --baseline or add "
                      "[tool.repro-staticcheck] to pyproject.toml)",
                      file=sys.stderr)
                return 2
            written = Baseline.from_findings(
                findings, baseline_path).write()
            active = sum(1 for f in findings if not f.suppressed)
            print(f"wrote {active} finding(s) to {written}")
            return 0
        delta = Baseline.load(baseline_path).delta(findings)

    renderer = {"text": render_text, "json": render_json,
                "sarif": render_sarif}[args.format]
    try:
        print(renderer(findings, delta))
    except BrokenPipeError:                       # pragma: no cover
        return 0
    return 0 if delta.clean else 1


if __name__ == "__main__":                        # pragma: no cover
    sys.exit(main())
