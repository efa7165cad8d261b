"""Command-line driver: ``python -m repro.staticcheck [paths...]``.

Exit codes: ``0`` when no unsuppressed finding remains, ``1`` on any
unsuppressed finding, ``2`` for usage errors and unparsable sources.
The only way to accept a finding is a justified pragma at the code it
waives (``# repro-lint: disable=SCnnn -- why``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.staticcheck.analyzer import analyze
from repro.staticcheck.findings import ALL_SC_RULES
from repro.staticcheck.report import render_sarif, render_text


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
        "--format", choices=("text", "sarif"), default="text",
        help="report format (default: text)")
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

    try:
        findings = analyze(paths)
    except SyntaxError as exc:
        print(f"error: cannot parse {exc.filename}:{exc.lineno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2

    renderer = render_sarif if args.format == "sarif" else render_text
    print(renderer(findings))
    return 1 if any(not f.suppressed for f in findings) else 0
