"""The bench-harness CLI: ``python -m repro.bench
run|check|replay|diff|report|list``.

* ``run``    — execute benchmarks (default: the gate set) and write
  ``BENCH_<name>.json`` baselines plus, with ``--artifacts``, the
  telemetry snapshot, Chrome trace, profile and collapsed stacks, and
  with ``--record``, a flight-recorder journal per benchmark;
* ``check``  — re-run and gate against the committed baselines; exit 1 on
  any regression (this is CI's ``bench-gate`` job);
* ``replay`` — re-execute a journal and bisect to the first divergence
  (exit 0: bit-identical, 1: diverged, 2: error);
* ``diff``   — compare two artifacts (per-metric deltas plus the top
  profile frame movements), or two ``<name>.profile.json`` profiles
  (every frame's self-cycle delta; exit 1 when the total moved);
* ``report`` — render artifacts (cycle digest, top frames, paper vs
  measured, per-enclave latency percentiles, timeline and request
  tables), journals or forensic bundles without running anything;
* ``list``   — show the registry.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench.artifact import (artifact_name, artifact_path,
                                  load_artifact, validate_artifact)
from repro.bench.compare import compare_artifacts, compare_report
from repro.bench.registry import REGISTRY, resolve
from repro.bench.report import load_record, report_all
from repro.bench.runner import (DEFAULT_BASELINE_DIR, check_benches,
                                run_benches)
from repro.flightrec.journal import Journal
from repro.profiler.core import PROFILE_KIND
from repro.profiler.diff import delta_lines, diff_report, rank_deltas
from repro.telemetry.timeline import DEFAULT_INTERVAL


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
                             "+ profile + collapsed stacks here")
    parser.add_argument("--no-profile", action="store_true",
                        help="skip building cycle profiles")
    parser.add_argument("--record", default=None, metavar="DIR",
                        dest="record_dir",
                        help="record each run's flight-recorder journal "
                             "here (replayable with `python -m "
                             "repro.bench replay`)")
    parser.add_argument("--timeline", action="store_true",
                        help="sample a cycle-domain timeline every "
                             f"{DEFAULT_INTERVAL:,} simulated cycles; adds "
                             "an informational `timeline` block to the "
                             "artifact")
    parser.add_argument("--requests", action="store_true",
                        dest="trace_requests",
                        help="trace every top-level ecall as a request "
                             "(repro.telemetry.requests); adds an "
                             "informational `requests` block to the "
                             "artifact")


def _timeline_interval(args) -> int | None:
    return DEFAULT_INTERVAL if args.timeline else None


def _cmd_list(args) -> int:
    width = max(len(name) for name in REGISTRY)
    for name, spec in REGISTRY.items():
        gate = "gate" if spec.gate else "    "
        print(f"  {name:<{width}}  [{spec.kind:<8}] [{gate}] "
              f"tol={spec.tolerance:.1%}  {spec.title}")
    return 0


def _cmd_run(args) -> int:
    specs = resolve(args.benchmarks, all_benches=args.all_benches)
    run_benches(specs, baseline_dir=args.baseline_dir,
                artifacts_dir=args.artifacts,
                profile=not args.no_profile,
                record_dir=args.record_dir,
                timeline_interval=_timeline_interval(args),
                trace_requests=args.trace_requests)
    print(f"wrote {len(specs)} baseline artifact(s) to "
          f"{args.baseline_dir}")
    return 0


def _cmd_check(args) -> int:
    specs = resolve(args.benchmarks, all_benches=args.all_benches)
    results = check_benches(specs, baseline_dir=args.baseline_dir,
                            artifacts_dir=args.artifacts,
                            profile=not args.no_profile,
                            record_dir=args.record_dir,
                            timeline_interval=_timeline_interval(args),
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
    baseline, current = (json.loads(pathlib.Path(path).read_text())
                         for path in (args.base, args.current))
    if all(isinstance(doc, dict) and doc.get("kind") == PROFILE_KIND
           for doc in (baseline, current)):
        # Two full profiles (<name>.profile.json): every frame is there,
        # so the diff ranks them all and gates on the total.
        print(diff_report(baseline, current, args.top))
        moved = baseline["combined"]["total_span_cycles"] != \
            current["combined"]["total_span_cycles"]
        return 1 if moved else 0
    validate_artifact(baseline)
    validate_artifact(current)
    result = compare_artifacts(baseline, current)
    print(compare_report([result], verbose=args.verbose))
    base_profile = baseline.get("profile")
    cur_profile = current.get("profile")
    if base_profile and cur_profile:
        # top_self is a top-N summary: a stack absent from one side is
        # below that side's cut, not at zero, so only stacks on both
        # sides get a number.
        base = {tuple(f["stack"].split(";")): f
                for f in base_profile["top_self"]}
        cur = {tuple(f["stack"].split(";")): f
               for f in cur_profile["top_self"]}
        both = base.keys() & cur.keys()
        moved = delta_lines(rank_deltas({s: base[s] for s in both},
                                        {s: cur[s] for s in both}),
                            args.top)
        if moved:
            print("\ntop profile frame deltas (self cycles):")
            print("\n".join(moved))
        for label, stacks in (("entered", cur.keys() - base.keys()),
                              ("left", base.keys() - cur.keys())):
            if stacks:
                print(f"\nstacks that {label} the top-N summary:")
                for stack in sorted(stacks):
                    print(f"  {';'.join(stack)}")
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
                       help="compare two BENCH_*.json artifacts, or two "
                            "<name>.profile.json profiles (exit 1 when "
                            "the profile totals moved)")
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
