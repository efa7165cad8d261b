"""Profiler CLI.

::

    python -m repro.profiler report   PROFILE.json [--top N]
    python -m repro.profiler collapse PROFILE.json [-o OUT.collapsed]
    python -m repro.profiler diff     BASE.json CURRENT.json [--top N]

All three work in the simulated-cycle domain; host time per layer is
``perfbench/run.py --trace 1``'s job.  ``PROFILE.json`` files are
written by ``python -m repro.bench run`` (``<name>.profile.json`` in the
artifacts directory) or by :func:`repro.profiler.profile_document` +
``json.dump`` from any script.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.profiler.collapsed import write_collapsed
from repro.profiler.core import profile_summary, validate_profile
from repro.profiler.diff import diff_report


def _load(path: str) -> dict:
    document = json.loads(pathlib.Path(path).read_text())
    validate_profile(document)
    return document


def _cmd_report(args) -> int:
    document = _load(args.profile)
    summary = profile_summary(document, args.top)
    print(f"total span cycles: {summary['total_span_cycles']:,} "
          f"across {summary['machines']} machine(s)")
    print(f"top {len(summary['top_self'])} frames by self cycles:")
    for frame in summary["top_self"]:
        print(f"  {frame['self_cycles']:>14,}  {frame['stack']}  "
              f"({frame['calls']} calls)")
    return 0


def _cmd_collapse(args) -> int:
    document = _load(args.profile)
    out = args.output or pathlib.Path(args.profile).with_suffix(".collapsed")
    path = write_collapsed(out, document)
    print(f"collapsed stacks: {path} (load with flamegraph.pl or "
          f"https://www.speedscope.app)")
    return 0


def _cmd_diff(args) -> int:
    base, current = _load(args.base), _load(args.current)
    print(diff_report(base, current, args.top))
    moved = base["combined"]["total_span_cycles"] != \
        current["combined"]["total_span_cycles"]
    return 1 if moved else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.profiler",
        description="exact cycle-attribution profiles over telemetry spans")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="print the top-N self-cycle frames")
    p.add_argument("profile")
    p.add_argument("--top", type=int, default=10, metavar="N")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("collapse",
                       help="write flamegraph-ready collapsed stacks")
    p.add_argument("profile")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_collapse)

    p = sub.add_parser("diff",
                       help="top cycle-delta frames between two profiles "
                            "(exit 1 when totals moved)")
    p.add_argument("base")
    p.add_argument("current")
    p.add_argument("--top", type=int, default=15, metavar="N")
    p.set_defaults(fn=_cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
