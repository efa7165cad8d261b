"""Cycle-domain timeline sampling: the time axis of the telemetry stack.

A :class:`TimelineSampler` snapshots a configurable set of series at a
fixed *simulated-cycle* interval.  It is driven by the machine's
:class:`~repro.hw.cycles.CycleCounter` — ``charge()`` notifies the
sampler when the running total crosses the next sample boundary — so
samples are a pure function of the op sequence: never host time, hence
bit-reproducible across runs, across the fast path and the reference
per-line loop, and through flight-recorder replay.

Probe discipline (what keeps the A/B fast-path equivalence exact):

* Probes must read state that changes at *op* granularity (pool free
  lists, resident-page maps, swap versions, world-switch counters).
  Values mutated by ``charge()`` itself — ``total``, ``by_category`` —
  are off limits: a batched fast-path charge crosses a boundary in one
  jump where the reference loop crosses it mid-batch, so sampling them
  would read different intermediate values per implementation.
* Cycle-domain series instead receive the *boundary* cycle (the row's
  own timestamp), which is identical in both by construction.
* When one charge jumps several boundaries at once, the sampler emits
  one row **per crossed boundary**, all carrying the same probe values:
  the reference loop crossing those boundaries one small charge at a time
  observes the same (batch-invariant) state, so row counts and contents
  match bit-for-bit.

Sampling is zero-cycle-perturbation like every other observer here: the
sampler only *reads* simulated state, never charges, and the disabled
path in ``charge()`` is a single attribute load and branch.

On top of the raw rows the module derives per-tenant rollups and
*pressure episodes* (contiguous intervals where the swap-out rate
crosses a threshold, attributed to victim/aggressor tenants), and
exports three ways: a timeline JSON document, Perfetto counter-track
events for the Chrome trace, and a stdlib-only HTML report with inline
SVG sparklines (see ``python -m repro.telemetry timeline``).
"""

from __future__ import annotations

import json
from html import escape
from typing import Callable

#: Default sample cadence, in simulated cycles.
DEFAULT_INTERVAL = 250_000

#: Default pressure-episode trigger: pages swapped out per interval.
DEFAULT_EPISODE_THRESHOLD = 4.0

TIMELINE_VERSION = 1
TIMELINE_KIND = "hyperenclave-timeline"

#: Tenant-keyed series folded into :func:`tenant_rollups` (the pair
#: series ``epc.stolen_frames`` and the cpu-keyed ``vcpu.cycles`` have
#: their own key namespaces and are handled separately).
_TENANT_SERIES = ("epc.resident_pages", "swap.pages_out",
                  "swap.pages_in", "world.cycles")


class TimelineSampler:
    """Samples registered probes every ``interval`` simulated cycles.

    Probe kinds:

    * ``scalar`` — ``fn() -> number``, one value per row;
    * ``tenant`` — ``fn() -> {key: number}``, a labelled family per row
      (keys are enclave ids, or ``"victim->aggressor"`` pairs);
    * ``cycle`` / ``cycle-tenant`` — like the above but called with the
      row's boundary cycle, for series derived from the clock itself.
    """

    __slots__ = ("interval", "next_cycle", "label", "tenants", "samples",
                 "_probes")

    def __init__(self, interval: int = DEFAULT_INTERVAL, *,
                 label: str = "machine") -> None:
        interval = int(interval)
        if interval <= 0:
            raise ValueError(f"sample interval must be positive: {interval}")
        self.interval = interval
        # CycleCounter.charge() compares against this before calling in;
        # the disabled path never reaches on_charge at all.
        self.next_cycle = interval
        self.label = label
        #: enclave-id (as str) -> display name, applied at report time.
        self.tenants: dict[str, str] = {}
        self.samples: list[dict] = []
        self._probes: list[tuple[str, str, Callable]] = []

    # -- probe registration --------------------------------------------------

    def _add(self, name: str, kind: str, fn: Callable) -> None:
        self._probes = [p for p in self._probes if p[0] != name]
        self._probes.append((name, kind, fn))

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        self._add(name, "scalar", fn)

    def add_tenant_probe(self, name: str, fn: Callable[[], dict]) -> None:
        self._add(name, "tenant", fn)

    def add_cycle_probe(self, name: str,
                        fn: Callable[[int], float]) -> None:
        self._add(name, "cycle", fn)

    def add_cycle_tenant_probe(self, name: str,
                               fn: Callable[[int], dict]) -> None:
        self._add(name, "cycle-tenant", fn)

    def name_tenant(self, enclave_id, display: str) -> None:
        """Attach a display name to an enclave id (used at report time,
        so naming mid-run never splits a series)."""
        self.tenants[str(enclave_id)] = str(display)

    # -- the sampling hook ---------------------------------------------------

    def on_charge(self, total: float) -> None:
        """Called by ``CycleCounter.charge`` once ``total`` has crossed
        ``next_cycle``; emits one row per crossed boundary."""
        boundary = self.next_cycle
        if total < boundary:
            return
        interval = self.interval
        scalars = []
        tenant_values = []
        cycle_probes = []
        for name, kind, fn in self._probes:
            if kind == "scalar":
                scalars.append((name, fn()))
            elif kind == "tenant":
                values = fn()
                if values:
                    tenant_values.append(
                        (name, {str(k): v for k, v in values.items()}))
            else:
                cycle_probes.append((name, kind, fn))
        last = int(total // interval) * interval
        samples = self.samples
        while boundary <= last:
            series = dict(scalars)
            tenants = {name: dict(values) for name, values in tenant_values}
            for name, kind, fn in cycle_probes:
                if kind == "cycle":
                    series[name] = fn(boundary)
                else:
                    values = fn(boundary)
                    if values:
                        tenants[name] = {str(k): v
                                         for k, v in values.items()}
            samples.append({"cycle": boundary, "series": series,
                            "tenants": tenants})
            boundary += interval
        self.next_cycle = boundary

    # -- export --------------------------------------------------------------

    def document(self) -> dict:
        """This sampler's timeline as a JSON-ready dict."""
        return {"label": self.label, "interval": self.interval,
                "tenants": dict(self.tenants),
                "samples": list(self.samples)}


# -- wiring ------------------------------------------------------------------


def register_machine_probes(sampler: TimelineSampler, machine) -> None:
    """The hardware-level series every timeline carries."""
    # The clock-domain series report the boundary cycle: identical in
    # both hot-path implementations by construction (see the module
    # docstring).
    sampler.add_cycle_probe("cycles.total", lambda boundary: boundary)
    # The cost model executes all simulated work on cpu0; extra CPUs
    # exist only as TLB-shootdown IPI targets.
    num_cpus = machine.config.num_cpus
    sampler.add_cycle_tenant_probe(
        "vcpu.cycles",
        lambda boundary: {f"cpu{i}": (boundary if i == 0 else 0)
                          for i in range(num_cpus)})


def register_monitor_probes(sampler: TimelineSampler, monitor) -> None:
    """The monitor-level series: EPC occupancy, swap, world switches.

    Called from ``RustMonitor.__init__`` when the machine already has a
    sampler attached; all probes read op-granularity state only.
    """
    sampler.add_probe("epc.free_frames",
                      lambda: monitor.epc_pool.free_pages)
    sampler.add_probe("world.enters", lambda: monitor.world.enters)
    sampler.add_probe("world.exits", lambda: monitor.world.exits)
    sampler.add_probe("world.aexes", lambda: monitor.world.aexes)
    sampler.add_probe("monitor.hypercalls", lambda: monitor.hypercalls)
    sampler.add_probe("tlb.shootdowns", lambda: monitor.tlb_shootdowns)
    sampler.add_tenant_probe(
        "epc.resident_pages",
        lambda: {eid: len(enc.pages)
                 for eid, enc in monitor.enclaves.items()})
    # EnclaveSwapState._version increments exactly once per swap-out,
    # so it doubles as the cumulative per-enclave swap-out counter; the
    # pages currently out are the not-yet-reloaded records.
    sampler.add_tenant_probe(
        "swap.pages_out",
        lambda: {eid: state._version
                 for eid, state in monitor._swap_states.items()})
    sampler.add_tenant_probe(
        "swap.pages_in",
        lambda: {eid: state._version - len(state.records)
                 for eid, state in monitor._swap_states.items()})
    sampler.add_tenant_probe(
        "epc.stolen_frames",
        lambda: {f"{victim}->{aggressor}": count
                 for (victim, aggressor), count
                 in monitor.epc_steals.items()})
    telemetry = monitor.machine.telemetry
    sampler.add_tenant_probe("world.cycles",
                             lambda: _world_cycles(telemetry))


def _world_cycles(telemetry) -> dict[str, float]:
    """Per-enclave world-switch cycles, read from the span metrics.

    Pure read-only iteration over the registry — interning anything here
    would let sampling perturb the exported metric set.
    """
    out: dict[str, float] = {}
    for (subsystem, name, labels), metric in telemetry.registry:
        if subsystem != "world" or not name.endswith(".cycles"):
            continue
        for key, value in labels:
            if key == "enclave":
                eid = str(value)
                out[eid] = out.get(eid, 0) + metric.value
    return out


def attach_machine(machine, *, interval: int = DEFAULT_INTERVAL,
                   label: str = "machine") -> TimelineSampler:
    """Attach a sampler to a machine (idempotent; relabels if present).

    A monitor constructed *after* this call registers its probes itself;
    for a pre-existing monitor call :func:`register_monitor_probes`.
    """
    sampler = machine.telemetry.timeline
    if sampler is None:
        sampler = TimelineSampler(interval, label=label)
        register_machine_probes(sampler, machine)
        machine.telemetry.timeline = sampler
        machine.cycles._timeline = sampler
    else:
        sampler.label = label
    return sampler


def detach_machine(machine) -> None:
    """Remove an attached sampler; the charge hook goes back to one
    load-and-branch."""
    machine.cycles._timeline = None
    machine.telemetry.timeline = None


# -- documents ---------------------------------------------------------------


def timeline_document(samplers) -> dict | None:
    """Fold one or more samplers into the timeline JSON document."""
    timelines = [s.document() for s in samplers if s is not None]
    if not timelines:
        return None
    return {"version": TIMELINE_VERSION, "kind": TIMELINE_KIND,
            "timelines": timelines}


def write_timeline(path, document: dict) -> None:
    """Schema-validate and write a timeline document."""
    from repro.telemetry.schema import validate_timeline
    validate_timeline(document)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_timeline(path) -> dict:
    """Load a timeline document — directly, or out of a bench artifact's
    ``timeline`` block."""
    from repro.telemetry.schema import validate_timeline
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if document.get("kind") != TIMELINE_KIND and "timeline" in document:
        document = document["timeline"]     # a bench artifact
    validate_timeline(document)
    return document


# -- series access -----------------------------------------------------------


def scalar_series(timeline: dict, name: str) -> list[tuple[int, float]]:
    """``[(cycle, value), ...]`` for one scalar series."""
    return [(s["cycle"], s["series"][name])
            for s in timeline["samples"] if name in s["series"]]


def tenant_series(timeline: dict, name: str) -> dict[str, list]:
    """``{key: [(cycle, value), ...]}`` for one tenant-keyed series."""
    out: dict[str, list] = {}
    for sample in timeline["samples"]:
        for key, value in sample["tenants"].get(name, {}).items():
            out.setdefault(key, []).append((sample["cycle"], value))
    return out


def rate_series(points: list[tuple[int, float]]) -> list[tuple[int, float]]:
    """Per-interval deltas of a cumulative series (row i covers the
    window ending at its cycle)."""
    return [(points[i][0], points[i][1] - points[i - 1][1])
            for i in range(1, len(points))]


def _tenant_values(sample: dict, name: str) -> dict:
    return sample["tenants"].get(name, {})


def _delta_map(start: dict, end: dict, name: str) -> dict[str, float]:
    first = _tenant_values(start, name)
    last = _tenant_values(end, name)
    keys = sorted(set(first) | set(last))
    return {k: last.get(k, 0) - first.get(k, 0) for k in keys}


def steal_pair(key: str) -> tuple[str, str]:
    """``(victim, aggressor)`` of a ``victim->aggressor`` steal key."""
    victim, sep, aggressor = key.partition("->")
    return (victim, aggressor if sep else victim)


def pick_steal_pair(steals: dict[str, float]
                    ) -> tuple[dict[str, float], str | None, str | None]:
    """``(chosen, victim, aggressor)`` for a map of steal counts.

    Cross-tenant steals name the contention pair; self-steals (an
    enclave thrashing its own working set) only decide when no other
    tenant was involved.  In the ``chosen`` steals the victim lost the
    most frames and the aggressor took the most; ties break via
    ``max(sorted(...))``.
    """
    chosen = {k: v for k, v in steals.items()
              if steal_pair(k)[0] != steal_pair(k)[1]} or steals
    if not chosen:
        return chosen, None, None
    stolen_from: dict[str, float] = {}
    stolen_by: dict[str, float] = {}
    for key, count in chosen.items():
        v, a = steal_pair(key)
        stolen_from[v] = stolen_from.get(v, 0) + count
        stolen_by[a] = stolen_by.get(a, 0) + count
    return (chosen,
            max(sorted(stolen_from), key=lambda k: stolen_from[k]),
            max(sorted(stolen_by), key=lambda k: stolen_by[k]))


# -- pressure episodes -------------------------------------------------------


def detect_episodes(timeline: dict, *, series: str = "swap.pages_out",
                    threshold: float = DEFAULT_EPISODE_THRESHOLD,
                    min_intervals: int = 1) -> list[dict]:
    """Contiguous intervals where the total ``series`` rate >= threshold.

    Each episode reports its cycle span, depth (peak rate), total pages,
    and the victim/aggressor tenants: the victim is the tenant that lost
    the most frames (steal records preferred, swap-out delta as the
    fallback), the aggressor the tenant that took the most (resident-
    page growth as the fallback).
    """
    samples = timeline["samples"]
    episodes: list[dict] = []
    if len(samples) < 2:
        return episodes

    def total(i: int) -> float:
        return sum(_tenant_values(samples[i], series).values())

    run_start = None
    for i in range(1, len(samples)):
        if total(i) - total(i - 1) >= threshold:
            if run_start is None:
                run_start = i
        elif run_start is not None:
            episodes.append(_episode(timeline, samples, run_start, i - 1,
                                     series))
            run_start = None
    if run_start is not None:
        episodes.append(_episode(timeline, samples, run_start,
                                 len(samples) - 1, series))
    return [e for e in episodes if e["intervals"] >= min_intervals]


def _episode(timeline: dict, samples: list, i0: int, i1: int,
             series: str) -> dict:
    rates = [sum(_tenant_values(samples[i], series).values())
             - sum(_tenant_values(samples[i - 1], series).values())
             for i in range(i0, i1 + 1)]
    start, end = samples[i0 - 1], samples[i1]

    steal_delta = {k: v for k, v in
                   _delta_map(start, end, "epc.stolen_frames").items()
                   if v > 0}
    chosen, victim, aggressor = pick_steal_pair(steal_delta)
    if not chosen:
        swapped = {k: v for k, v in _delta_map(start, end, series).items()
                   if v > 0}
        if swapped:
            victim = max(sorted(swapped), key=lambda k: swapped[k])
        grew = {k: v for k, v in
                _delta_map(start, end, "epc.resident_pages").items()
                if v > 0}
        if grew:
            aggressor = max(sorted(grew), key=lambda k: grew[k])

    names = timeline.get("tenants", {})
    return {
        "series": series,
        "start_cycle": start["cycle"],
        "end_cycle": end["cycle"],
        "intervals": i1 - i0 + 1,
        "pages": sum(rates),
        "depth": max(rates),
        "victim": None if victim is None else names.get(victim, victim),
        "aggressor": (None if aggressor is None
                      else names.get(aggressor, aggressor)),
    }


# -- per-tenant rollups ------------------------------------------------------


def tenant_rollups(timeline: dict) -> dict[str, dict]:
    """Whole-run aggregates per tenant, keyed by enclave id."""
    samples = timeline["samples"]
    names = timeline.get("tenants", {})
    keys = set(names)
    for sample in samples:
        for series in _TENANT_SERIES:
            keys.update(_tenant_values(sample, series))
    stolen_from: dict[str, dict] = {}
    stolen_by: dict[str, dict] = {}
    if samples:
        for key, count in sorted(
                _tenant_values(samples[-1], "epc.stolen_frames").items()):
            victim, aggressor = steal_pair(key)
            keys.add(victim)
            keys.add(aggressor)
            stolen_from.setdefault(victim, {})[aggressor] = count
            stolen_by.setdefault(aggressor, {})[victim] = count

    def last(series: str, key: str) -> float:
        for sample in reversed(samples):
            value = _tenant_values(sample, series).get(key)
            if value is not None:
                return value
        return 0

    out: dict[str, dict] = {}
    for key in sorted(keys):
        resident = [v for v in
                    (_tenant_values(s, "epc.resident_pages").get(key)
                     for s in samples) if v is not None]
        out[key] = {
            "tenant": names.get(key, key),
            "cycles": last("world.cycles", key),
            "epc_pages_peak": max(resident) if resident else 0,
            "epc_pages_mean": (round(sum(resident) / len(resident), 3)
                               if resident else 0),
            "pages_swapped_out": last("swap.pages_out", key),
            "pages_swapped_in": last("swap.pages_in", key),
            "stolen_from": {names.get(a, a): n for a, n in
                            sorted(stolen_from.get(key, {}).items())},
            "stolen_by": {names.get(v, v): n for v, n in
                          sorted(stolen_by.get(key, {}).items())},
        }
    return out


# -- Perfetto counter tracks -------------------------------------------------


def timeline_counter_events(timeline: dict, *, pid: int = 1) -> list[dict]:
    """Chrome-trace ``ph: "C"`` counter events (1 cycle = 1 us), merged
    into the span trace by the telemetry exporter."""
    names = timeline.get("tenants", {})
    events: list[dict] = []
    for sample in timeline["samples"]:
        ts = sample["cycle"]
        for name in sorted(sample["series"]):
            events.append({"ph": "C", "pid": pid, "tid": 0, "ts": ts,
                           "name": name,
                           "args": {"value": sample["series"][name]}})
        for name in sorted(sample["tenants"]):
            args = {str(names.get(k, k)): v for k, v in
                    sorted(sample["tenants"][name].items())}
            if args:
                events.append({"ph": "C", "pid": pid, "tid": 0, "ts": ts,
                               "name": name, "args": args})
    return events


# -- text report -------------------------------------------------------------


def timeline_report(document: dict, *,
                    threshold: float = DEFAULT_EPISODE_THRESHOLD) -> str:
    """A plain-text digest of a timeline document."""
    lines: list[str] = []
    for timeline in document["timelines"]:
        samples = timeline["samples"]
        lines.append(f"timeline [{timeline['label']}]: "
                     f"{len(samples)} samples every "
                     f"{timeline['interval']:,} cycles")
        if not samples:
            continue
        lines.append(f"  span: cycle {samples[0]['cycle']:,} .. "
                     f"{samples[-1]['cycle']:,}")
        series_names = sorted({name for s in samples for name in s["series"]})
        for name in series_names:
            points = scalar_series(timeline, name)
            values = [v for _, v in points]
            lines.append(f"  {name:<24} last={values[-1]:>12,.0f}  "
                         f"min={min(values):>12,.0f}  "
                         f"max={max(values):>12,.0f}")
        rollups = tenant_rollups(timeline)
        for key, roll in rollups.items():
            lines.append(
                f"  tenant {roll['tenant']} (enclave {key}): "
                f"epc peak/mean {roll['epc_pages_peak']}/"
                f"{roll['epc_pages_mean']} pages, "
                f"swapped out {roll['pages_swapped_out']} / "
                f"in {roll['pages_swapped_in']}")
        episodes = detect_episodes(timeline, threshold=threshold)
        lines.append(f"  pressure episodes (>= {threshold:g} pages/interval):"
                     f" {len(episodes)}")
        for ep in episodes:
            lines.append(
                f"    cycle {ep['start_cycle']:,} .. {ep['end_cycle']:,}: "
                f"{ep['pages']:g} pages over {ep['intervals']} intervals "
                f"(depth {ep['depth']:g}), victim={ep['victim']} "
                f"aggressor={ep['aggressor']}")
    return "\n".join(lines)


# -- HTML report -------------------------------------------------------------

_HTML_STYLE = """\
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 64em; color: #1f2937; }
h1 { font-size: 1.4em; } h2 { font-size: 1.15em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: .6em 0; }
th, td { border: 1px solid #d1d5db; padding: .25em .6em;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f3f4f6; }
svg { display: block; }
.quiet { color: #6b7280; }
"""


def _sparkline(points: list[tuple[int, float]], *, width: int = 260,
               height: int = 44, pad: int = 4) -> str:
    values = [v for _, v in points]
    if not values:
        return (f'<svg width="{width}" height="{height}"></svg>')
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1
    steps = max(len(values) - 1, 1)
    coords = []
    for i, value in enumerate(values):
        x = pad + (width - 2 * pad) * i / steps
        y = pad + (height - 2 * pad) * (1 - (value - lo) / span)
        coords.append(f"{x:.1f},{y:.1f}")
    return (f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'<polyline fill="none" stroke="#2563eb" stroke-width="1.5" '
            f'points="{" ".join(coords)}"/></svg>')


def _series_row(name: str, points: list[tuple[int, float]]) -> str:
    values = [v for _, v in points]
    stats = (f"<td>{min(values):,.0f}</td><td>{max(values):,.0f}</td>"
             f"<td>{values[-1]:,.0f}</td>" if values
             else "<td></td><td></td><td></td>")
    return (f"<tr><td>{escape(name)}</td>{stats}"
            f"<td>{_sparkline(points)}</td></tr>")


def render_html(document: dict, *,
                threshold: float = DEFAULT_EPISODE_THRESHOLD) -> str:
    """A self-contained static HTML report (stdlib only, inline SVG)."""
    parts = ["<!DOCTYPE html>", "<html><head><meta charset=\"utf-8\">",
             "<title>HyperEnclave timeline report</title>",
             f"<style>{_HTML_STYLE}</style></head><body>",
             "<h1>HyperEnclave timeline report</h1>"]
    for timeline in document["timelines"]:
        samples = timeline["samples"]
        parts.append(f"<h2>{escape(str(timeline['label']))}</h2>")
        parts.append(
            f"<p class=\"quiet\">{len(samples)} samples every "
            f"{timeline['interval']:,} simulated cycles.</p>")
        if not samples:
            continue

        header = ("<tr><th>series</th><th>min</th><th>max</th>"
                  "<th>last</th><th>sparkline</th></tr>")
        rows = [header]
        for name in sorted({n for s in samples for n in s["series"]}):
            rows.append(_series_row(name, scalar_series(timeline, name)))
        names = timeline.get("tenants", {})
        for name in sorted({n for s in samples for n in s["tenants"]}):
            for key, points in sorted(tenant_series(timeline, name).items()):
                display = str(names.get(key, key))
                rows.append(_series_row(f"{name} [{display}]", points))
        parts.append("<table>" + "".join(rows) + "</table>")

        parts.append("<h2>Per-tenant rollups</h2>")
        rows = ["<tr><th>tenant</th><th>world cycles</th>"
                "<th>EPC peak</th><th>EPC mean</th><th>swapped out</th>"
                "<th>swapped in</th><th>stolen from</th>"
                "<th>stolen by</th></tr>"]
        for key, roll in tenant_rollups(timeline).items():
            stolen_from = ", ".join(f"{escape(str(a))}: {n:g}"
                                    for a, n in roll["stolen_from"].items())
            stolen_by = ", ".join(f"{escape(str(v))}: {n:g}"
                                  for v, n in roll["stolen_by"].items())
            rows.append(
                f"<tr><td>{escape(str(roll['tenant']))} "
                f"(enclave {escape(key)})</td>"
                f"<td>{roll['cycles']:,.0f}</td>"
                f"<td>{roll['epc_pages_peak']:g}</td>"
                f"<td>{roll['epc_pages_mean']:g}</td>"
                f"<td>{roll['pages_swapped_out']:g}</td>"
                f"<td>{roll['pages_swapped_in']:g}</td>"
                f"<td>{stolen_from}</td><td>{stolen_by}</td></tr>")
        parts.append("<table>" + "".join(rows) + "</table>")

        episodes = detect_episodes(timeline, threshold=threshold)
        parts.append(f"<h2>Pressure episodes "
                     f"(&ge; {threshold:g} pages/interval)</h2>")
        if not episodes:
            parts.append("<p class=\"quiet\">none detected</p>")
        else:
            rows = ["<tr><th>start cycle</th><th>end cycle</th>"
                    "<th>intervals</th><th>pages</th><th>depth</th>"
                    "<th>victim</th><th>aggressor</th></tr>"]
            for ep in episodes:
                rows.append(
                    f"<tr><td>{ep['start_cycle']:,}</td>"
                    f"<td>{ep['end_cycle']:,}</td>"
                    f"<td>{ep['intervals']}</td><td>{ep['pages']:g}</td>"
                    f"<td>{ep['depth']:g}</td>"
                    f"<td>{escape(str(ep['victim']))}</td>"
                    f"<td>{escape(str(ep['aggressor']))}</td></tr>")
            parts.append("<table>" + "".join(rows) + "</table>")
    parts.append("</body></html>")
    return "\n".join(parts)
