"""The flight-recorder CLI: ``python -m repro.flightrec <command>``.

* ``record <scenario> -o journal.json`` — run a scenario under the
  recorder and write its journal;
* ``replay <journal>`` — re-execute and bisect to the first divergence
  (exit 0: bit-identical, 1: diverged, 2: error); ``--perturb-category``
  injects a cycle perturbation to *prove* the bisection works;
* ``inspect <bundle>`` — render a forensic bundle;
* ``info <journal>`` — header/summary of a journal;
* ``scenarios`` — every recordable scenario id.
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_scenarios(args) -> int:
    from repro.flightrec.scenario import scenario_ids
    for scenario in scenario_ids():
        print(f"  {scenario}")
    return 0


def _cmd_record(args) -> int:
    from repro.flightrec.scenario import run_recorded
    journal, _figures = run_recorded(
        args.scenario, json.loads(args.args),
        checkpoint_every=args.checkpoint_every)
    path = journal.write(args.output)
    summary = journal.summary
    print(f"recorded {summary['total_events']} events, "
          f"{len(journal.checkpoints)} checkpoints -> {path}")
    for m in summary["machines"]:
        print(f"  {m['label']}: {m['total_cycles']:,.0f} cycles, "
              f"state {m['state_hash'][:16]}…")
    return 0


def _cmd_replay(args) -> int:
    from repro.flightrec.journal import Journal
    from repro.flightrec.replay import replay_journal
    journal = Journal.load(args.journal)
    perturb = None
    if args.perturb_category:
        from repro.flightrec.perturb import perturb_cycles
        perturb = perturb_cycles(args.perturb_category,
                                 extra=args.perturb_cycles,
                                 at=args.perturb_at)
    result = replay_journal(journal, window=args.window, perturb=perturb)
    print(result.render(verbose=args.verbose))
    if perturb is not None and not perturb.fired:
        print(f"warning: perturbation never fired (no charge matched "
              f"{args.perturb_category!r} {args.perturb_at} times)",
              file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_inspect(args) -> int:
    from repro.flightrec.forensics import load_bundle, render_bundle
    document = load_bundle(args.bundle)
    print(render_bundle(document, events=args.events,
                        verbose=args.verbose))
    return 0


def _cmd_info(args) -> int:
    from repro.flightrec.journal import Journal
    journal = Journal.load(args.journal)
    header = journal.header
    print(f"scenario:         {header['scenario']}")
    print(f"args:             {header.get('args') or {}}")
    print(f"checkpoint every: {header.get('checkpoint_every')}")
    prov = header.get("provenance", {})
    print(f"costs:            {prov.get('costs_fingerprint')}")
    print(f"events:           {len(journal.events)}")
    print(f"checkpoints:      {len(journal.checkpoints)} "
          f"(hash chain verified)")
    for entry in header.get("machines", []):
        print(f"machine:          {entry['label']}")
    for m in journal.summary.get("machines", []):
        print(f"  {m['label']}: {m['total_cycles']:,.0f} cycles, "
              f"{m['events']} events, state {m['state_hash']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.flightrec",
        description="deterministic record/replay + crash forensics for "
                    "the simulated platform")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenarios", help="list recordable scenarios")
    p.set_defaults(fn=_cmd_scenarios)

    p = sub.add_parser("record", help="record a scenario into a journal")
    p.add_argument("scenario", help="scenario id (e.g. "
                                    "bench:table1_edge_calls)")
    p.add_argument("-o", "--output", default="journal.json",
                   metavar="PATH")
    p.add_argument("--args", default="{}", metavar="JSON",
                   help="scenario arguments as a JSON object")
    p.add_argument("--checkpoint-every", type=int, default=1024,
                   metavar="N", help="events between state checkpoints")
    p.set_defaults(fn=_cmd_record)

    p = sub.add_parser("replay",
                       help="re-execute a journal and bisect divergence "
                            "(exit 1 when runs differ)")
    p.add_argument("journal")
    p.add_argument("--window", type=int, default=8, metavar="N",
                   help="events of context around the divergence")
    p.add_argument("--perturb-category", default=None, metavar="CAT",
                   help="inject extra cycles into charges of this "
                        "declared category (testing the bisection)")
    p.add_argument("--perturb-cycles", type=float, default=1.0,
                   metavar="N")
    p.add_argument("--perturb-at", type=int, default=1, metavar="K",
                   help="inject on the K-th matching charge")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("inspect", help="render a forensic bundle")
    p.add_argument("bundle")
    p.add_argument("--events", type=int, default=20, metavar="N")
    p.add_argument("--verbose", action="store_true",
                   help="include the full state dump")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("info", help="show a journal's header/summary")
    p.add_argument("journal")
    p.set_defaults(fn=_cmd_info)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
