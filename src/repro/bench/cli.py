"""The bench-harness CLI: ``python -m repro.bench
run|check|replay|diff|report|list``.

* ``run``    — execute benchmarks (default: the gate set) and write
  ``BENCH_<name>.json`` baselines (the exact cycle profile included)
  plus, with ``--artifacts``, the telemetry snapshot, Chrome trace and
  collapsed stacks, and
  with ``--record``, a flight-recorder journal per benchmark; exit 1
  on a failed paper claim (the module's ``check(figures)``);
* ``check``  — re-run and gate against the committed baselines; exit 1 on
  any regression or failed claim (this is CI's ``bench-gate`` job);
* ``replay`` — re-execute a journal and bisect to the first divergence
  (exit 0: bit-identical, 1: diverged, 2: error);
* ``diff``   — compare two artifacts: per-metric deltas plus the frames
  whose self cycles moved most (exit 1 when the gate would fail);
* ``report`` — render artifacts (cycle digest, top frames, paper vs
  measured, per-enclave latency percentiles, request tables), journals
  or forensic bundles without running anything;
* ``list``   — show the registry.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench.artifact import artifact_name, artifact_path, load_artifact
from repro.bench.compare import compare_artifacts, compare_report
from repro.bench.registry import REGISTRY, resolve
from repro.bench.report import load_record, report_all
from repro.bench.runner import (DEFAULT_BASELINE_DIR, check_benches,
                                run_benches)
from repro.flightrec.journal import Journal
from repro.profiler import diff_report


def _add_selection(parser) -> None:
    parser.add_argument("benchmarks", nargs="*", metavar="NAME",
                        help="benchmark names (default: the gate set)")
    parser.add_argument("--all", action="store_true", dest="all_benches",
                        help="every registered benchmark")
    parser.add_argument("--baseline-dir", default=str(DEFAULT_BASELINE_DIR),
                        metavar="DIR",
                        help="where BENCH_<name>.json baselines live")
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="also write telemetry snapshot + Chrome trace "
                             "+ collapsed stacks here")
    parser.add_argument("--record", default=None, metavar="DIR",
                        dest="record_dir",
                        help="record each run's flight-recorder journal "
                             "here (replayable with `python -m "
                             "repro.bench replay`)")
    parser.add_argument("--requests", action="store_true",
                        dest="trace_requests",
                        help="trace every top-level ecall as a request "
                             "(repro.telemetry.requests); adds an "
                             "informational `requests` block to the "
                             "artifact")


def _cmd_list(args) -> int:
    width = max(len(name) for name in REGISTRY)
    for name, spec in REGISTRY.items():
        gate = "gate" if spec.gate else "    "
        print(f"  {name:<{width}}  [{spec.kind:<8}] [{gate}] "
              f"tol={spec.tolerance:.1%}  {spec.title}")
    return 0


def _cmd_run(args) -> int:
    specs = resolve(args.benchmarks, all_benches=args.all_benches)
    outputs = run_benches(
        specs, baseline_dir=args.baseline_dir, artifacts_dir=args.artifacts,
        record_dir=args.record_dir, trace_requests=args.trace_requests)
    print(f"wrote {len(specs)} baseline artifact(s) to "
          f"{args.baseline_dir}")
    failed = [output.spec.name for output in outputs if output.claim]
    if failed:
        print(f"PAPER CLAIMS FAILED: {', '.join(failed)}")
    return 1 if failed else 0


def _cmd_check(args) -> int:
    specs = resolve(args.benchmarks, all_benches=args.all_benches)
    results = check_benches(specs, baseline_dir=args.baseline_dir,
                            artifacts_dir=args.artifacts,
                            record_dir=args.record_dir,
                            trace_requests=args.trace_requests)
    if args.json:
        print(json.dumps([r.as_dict() for r in results], indent=2))
    else:
        print(compare_report(results, verbose=args.verbose))
    return 0 if all(r.ok for r in results) else 1


def _cmd_report(args) -> int:
    records = []
    for item in args.records or []:
        path = pathlib.Path(item)
        if not path.exists():
            # Accept bench names too: resolve into the baseline dir.
            (spec,) = resolve([item])
            path = artifact_path(args.baseline_dir, spec.name)
        records.append(load_record(path))
    if not records:
        # Every artifact in the directory, registered ones in registry
        # order first.
        order = {name: i for i, name in enumerate(REGISTRY)}
        paths = pathlib.Path(args.baseline_dir).glob(artifact_name("*"))
        records = sorted(
            (load_artifact(path) for path in paths),
            key=lambda a: (order.get(a["name"], len(order)), a["name"]))
    if not records:
        print(f"no artifacts found under {args.baseline_dir}",
              file=sys.stderr)
        return 2
    print(report_all(records, args.format))
    return 0


def _cmd_replay(args) -> int:
    from repro.flightrec.replay import replay_journal
    result = replay_journal(Journal.load(args.journal))
    print(result.render())
    return 0 if result.ok else 1


def _cmd_diff(args) -> int:
    baseline, current = (load_artifact(path)
                         for path in (args.base, args.current))
    result = compare_artifacts(baseline, current)
    print(compare_report([result], verbose=args.verbose))
    if baseline.get("profile") and current.get("profile"):
        print("\n" + diff_report(baseline["profile"], current["profile"],
                                  args.top))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="benchmark runner + regression gate over BENCH_*.json "
                    "baselines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="show the benchmark registry")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("run", help="run benchmarks and write baselines")
    _add_selection(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("check",
                       help="re-run and gate against committed baselines "
                            "(exit 1 on regression)")
    _add_selection(p)
    p.add_argument("--json", action="store_true",
                   help="machine-readable gate report")
    p.add_argument("--verbose", action="store_true",
                   help="show every compared metric, not just failures")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("replay",
                       help="re-execute a flight-recorder journal and "
                            "bisect to the first divergence (exit 1 when "
                            "the runs differ)")
    p.add_argument("journal")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("report",
                       help="render artifact digests (cycles, paper vs "
                            "measured, per-enclave latency percentiles), "
                            "journals or forensic bundles")
    p.add_argument("records", nargs="*", metavar="NAME-or-PATH",
                   help="bench names, or paths of artifacts, journals "
                        "or forensic bundles (default: every "
                        "BENCH_*.json in --baseline-dir)")
    p.add_argument("--baseline-dir", default=str(DEFAULT_BASELINE_DIR),
                   metavar="DIR",
                   help="where BENCH_<name>.json baselines live")
    p.add_argument("--format", choices=("text", "markdown"),
                   default="text",
                   help="digest format (markdown emits GitHub-flavored "
                        "tables)")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("diff",
                       help="compare two BENCH_*.json artifacts: metric "
                            "deltas and the frames whose self cycles "
                            "moved (exit 1 when the gate would fail)")
    p.add_argument("base")
    p.add_argument("current")
    p.add_argument("--top", type=int, default=10, metavar="N")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        raise                 # a closed stdout is run_cli's to handle
    except (KeyError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
