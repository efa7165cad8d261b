"""Wall-clock attribution over the span tree: the host-time profiler.

The cycle profiler (:mod:`repro.profiler.core`) answers "where did the
*simulated* cycles go"; this module answers the ROADMAP's wall-clock
question — "where does the *host* spend its seconds simulating them".
Every span already records exact host-time intervals
(``SpanRecord.dur_wall_ns`` / ``self_wall_ns``), so the frames here are
an exact dual-domain accounting, not a sample:

* **wall frames** — self-vs-child host nanoseconds per unique stack
  path, rendered as a collapsed-stack file (the *wall flamegraph*) next
  to the cycle flamegraph;
* **efficiency frames** — wall-ns spent per simulated cycle, per stack
  path: the ratio that names the pure-Python hot paths (page walks,
  memenc inner loops) worth attacking, because a frame that is cheap in
  cycles but expensive in wall time is simulator overhead, not modeled
  hardware;
* per-subsystem wall shares — the ``throughput`` block in bench
  artifacts is built from these.

Unlike cycle data, wall times are *not* deterministic: they vary with
the host machine and load.  Nothing here feeds the simulated clock — the
profiler stays a pure observer, and the only gated wall metric
(``throughput.sim_cycles_per_wall_second``) uses a direction-aware band
(see :mod:`repro.bench.compare`).

``host_clock_ns()`` is the single sanctioned host-time source for the
bench harness: the ``sanctioned-clocks`` entry of
``[tool.repro-staticcheck]`` in pyproject.toml exempts it from SC001.
"""

from __future__ import annotations

import pathlib
import time

from repro.profiler.core import validate_profile


def host_clock_ns() -> int:
    """The harness host-time source (``time.perf_counter_ns``).

    Only harness-side code (bench runner, exporters) may call this;
    cycle-charged simulation code is kept wall-clock-free by staticcheck
    rule SC001.
    """
    return time.perf_counter_ns()


def has_wall_data(document: dict) -> bool:
    """Whether a profile document carries wall-domain frame fields.

    Profiles written before the wall profiler (PR-3 era) validate fine
    but have no ``self_wall_ns``; callers should degrade gracefully.
    """
    for snap in document["machines"]:
        for frame in snap["frames"]:
            if "self_wall_ns" in frame:
                return True
    return False


# -- wall frames -------------------------------------------------------------

def wall_frames(document: dict) -> list[dict]:
    """Combined frames ranked by self wall-time, heaviest first."""
    validate_profile(document)
    frames = [f for f in document["combined"]["frames"]
              if f.get("self_wall_ns", 0) > 0]
    return sorted(frames, key=lambda f: (-f["self_wall_ns"], f["stack"]))


def subsystem_wall_shares(document: dict) -> dict[str, dict]:
    """Self wall-time folded by subsystem (leaf frame's name prefix).

    Returns ``{subsystem: {"self_wall_ns": ns, "share": fraction}}``
    where shares are of total span-attributed wall time, so they sum to
    1.0 (when any wall time was recorded at all).
    """
    totals: dict[str, int] = {}
    for frame in document["combined"]["frames"]:
        ns = frame.get("self_wall_ns", 0)
        if ns <= 0:
            continue
        leaf = frame["stack"][-1]
        subsystem = leaf.partition(".")[0]
        totals[subsystem] = totals.get(subsystem, 0) + ns
    grand = sum(totals.values())
    return {sub: {"self_wall_ns": ns,
                  "share": ns / grand if grand else 0.0}
            for sub, ns in sorted(totals.items())}


def wall_summary(document: dict, n: int = 10) -> dict:
    """The compact wall-domain digest (mirrors ``profile_summary``)."""
    combined = document["combined"]
    top = wall_frames(document)[:n]
    return {
        "total_span_wall_ns": combined.get("total_span_wall_ns", 0),
        "machines": len(document["machines"]),
        "by_subsystem": subsystem_wall_shares(document),
        "top_self_wall": [{"stack": ";".join(f["stack"]),
                           "self_wall_ns": f["self_wall_ns"],
                           "calls": f["calls"]} for f in top],
    }


# -- efficiency frames (wall-ns per simulated cycle) -------------------------

def efficiency_frames(document: dict, *, min_cycles: int = 1
                      ) -> list[dict]:
    """Per-stack simulation efficiency, worst (most wall per cycle) first.

    Each entry pairs a stack's self wall-time with its self cycles and
    their ratio ``wall_ns_per_cycle`` — the cost of simulating one cycle
    of that frame on this host.  Frames below ``min_cycles`` self cycles
    are dropped: their ratios are noise (a 200 ns span over 3 cycles
    says nothing about hot paths).
    """
    validate_profile(document)
    out = []
    for frame in document["combined"]["frames"]:
        self_cycles = frame["self_cycles"]
        self_wall = frame.get("self_wall_ns", 0)
        if self_cycles < min_cycles or self_wall <= 0:
            continue
        out.append({
            "stack": frame["stack"],
            "calls": frame["calls"],
            "self_cycles": self_cycles,
            "self_wall_ns": self_wall,
            "wall_ns_per_cycle": self_wall / self_cycles,
        })
    out.sort(key=lambda f: (-f["wall_ns_per_cycle"], f["stack"]))
    return out


def efficiency_report(document: dict, n: int = 15, *,
                      min_cycles: int = 1000) -> str:
    """Human-readable efficiency table: the wall-per-cycle hot list."""
    frames = efficiency_frames(document, min_cycles=min_cycles)
    combined = document["combined"]
    total_wall = combined.get("total_span_wall_ns", 0)
    total_cycles = combined.get("total_span_cycles", 0) or 1
    out = ["Efficiency: host wall-time per simulated cycle", "=" * 48,
           f"span-attributed wall time: {total_wall / 1e6:,.2f} ms over "
           f"{total_cycles:,} simulated cycles "
           f"({total_wall / total_cycles:,.1f} ns/cycle overall)", ""]
    if not frames:
        out.append("no wall-domain data (profile predates the wall "
                   "profiler; regenerate with `python -m repro.bench run`)")
        return "\n".join(out)
    out.append(f"top {min(n, len(frames))} frames by wall-ns per cycle "
               f"(>= {min_cycles} self cycles):")
    out.append(f"  {'ns/cycle':>10}  {'self wall ms':>12}  "
               f"{'self cycles':>14}  stack")
    for frame in frames[:n]:
        out.append(f"  {frame['wall_ns_per_cycle']:>10,.1f}  "
                   f"{frame['self_wall_ns'] / 1e6:>12,.3f}  "
                   f"{frame['self_cycles']:>14,}  "
                   f"{';'.join(frame['stack'])}")
    return "\n".join(out)


def wall_report(document: dict, n: int = 10) -> str:
    """Human-readable wall-domain digest: shares plus top frames."""
    summary = wall_summary(document, n)
    total = summary["total_span_wall_ns"]
    out = ["Wall time: where the host seconds went", "=" * 40,
           f"span-attributed wall time: {total / 1e6:,.2f} ms across "
           f"{summary['machines']} machine(s)", ""]
    shares = summary["by_subsystem"]
    if not shares:
        out.append("no wall-domain data (profile predates the wall "
                   "profiler; regenerate with `python -m repro.bench run`)")
        return "\n".join(out)
    out.append(f"wall share by subsystem (of {len(shares)}):")
    for sub, entry in sorted(shares.items(),
                             key=lambda kv: -kv[1]["self_wall_ns"]):
        out.append(f"  {sub:<12} {entry['self_wall_ns'] / 1e6:>12,.3f} ms "
                   f"({entry['share']:6.1%})")
    out.append("")
    out.append(f"top {len(summary['top_self_wall'])} frames by self "
               f"wall time:")
    for frame in summary["top_self_wall"]:
        out.append(f"  {frame['self_wall_ns'] / 1e6:>12,.3f} ms  "
                   f"{frame['stack']}  ({frame['calls']} calls)")
    return "\n".join(out)


# -- wall flamegraph (collapsed stacks weighted by self wall-ns) -------------

def wall_collapsed_lines(document: dict, *, prefix_machine: bool = True
                         ) -> list[str]:
    """Collapsed stacks weighted by self wall-ns: the wall flamegraph.

    Loaded next to the cycle-weighted ``.collapsed`` file, the width
    differences between the two flamegraphs *are* the efficiency map —
    a frame wider in wall than in cycles is simulator overhead.
    """
    validate_profile(document)
    lines: list[str] = []
    if prefix_machine:
        for snap in document["machines"]:
            label = snap["label"].replace(";", "_").replace(" ", "_")
            for frame in snap["frames"]:
                if frame.get("self_wall_ns", 0) <= 0:
                    continue
                stack = ";".join([label] + frame["stack"])
                lines.append(f"{stack} {int(frame['self_wall_ns'])}")
    else:
        for frame in document["combined"]["frames"]:
            if frame.get("self_wall_ns", 0) <= 0:
                continue
            lines.append(f"{';'.join(frame['stack'])} "
                         f"{int(frame['self_wall_ns'])}")
    return lines


def write_wall_collapsed(path: str | pathlib.Path, document: dict, *,
                         prefix_machine: bool = True) -> pathlib.Path:
    """Write the wall-weighted collapsed-stack file; returns the path."""
    path = pathlib.Path(path)
    lines = wall_collapsed_lines(document, prefix_machine=prefix_machine)
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path
