"""Human-readable digests of run records.

``python -m repro.bench report`` renders, per artifact: the cycle
digest, the figures (one row per series), the top profile frames by
self cycles, the paper-vs-measured lines for the paper's headline
tables and figures, the per-enclave latency percentile table
(p50/p95/p99 in simulated cycles, Stress-SGX-style), plus, when the
artifact carries them, the request tables (per-call latency, the
slowest requests with their critical paths, cross-tenant
interference).  It reads committed baselines by default, so it is one
command with no benchmark run, and it is the only reader of those
blocks.  Host speed is ``perfbench``'s job, not this report's.

The same command renders the other two records a run leaves: a
flight-recorder journal (run identity, counts, and each machine's
label, cycles, events and final state hash) and a forensic bundle
(error, state fingerprints, cycles, open spans, trace stats and the
last events).

Each section builds its rows once as :class:`Table` blocks; one renderer
emits them as plain text or, with ``--format markdown``, as
GitHub-flavored markdown tables ready to paste into a PR description or
job summary.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from repro.bench.artifact import validate_artifact
from repro.flightrec.forensics import BUNDLE_KIND
from repro.flightrec.journal import JOURNAL_KIND, Journal
from repro.hw.cycles import CLASSES

# The paper's headline numbers, for side-by-side rendering.
PAPER = {
    "table1_ecall": {"HU-Enclave": 8440, "GU-Enclave": 9480,
                     "P-Enclave": 9700, "Intel SGX": 14432},
    "table2_ud": {"P-Enclave": 258, "GU-Enclave": 17490,
                  "Intel SGX": 28561},
    "fig8d_relmax": {"HU-Enclave": 0.89, "GU-Enclave": 0.72, "SGX": 0.48},
}

#: How many of the slowest traced requests get a critical-path row.
SLOWEST = 5


@dataclass
class Table:
    """One report block: rows of pre-formatted cells under a title.

    ``text`` is the ``str.format`` template of one plain-text row (the
    header line uses it too unless ``text_header`` is off); markdown
    ignores it and emits a pipe table.  A table with no rows and an
    ``empty`` note renders just the note.
    """

    title: str
    headers: list[str]
    rows: list[list[str]]
    text: str
    text_header: bool = True
    empty: str | None = None


def _fmt_cycles(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:,.0f}"


def _series_rows(path: str, value, rows: list[list[str]]) -> None:
    """Append one row per numeric series below ``path``: the numbers of
    a list, the numeric fields of a dict, or a lone top-level number."""
    is_dict = isinstance(value, dict)
    cells = []
    for key, sub in value.items() if is_dict else enumerate(value):
        name = f"{path}.{key}" if path else key
        if isinstance(sub, (dict, list)):
            _series_rows(name, sub, rows)
        elif isinstance(sub, (int, float)) and not isinstance(sub, bool):
            cell = f"{sub:,.0f}" if abs(sub) >= 1000 else f"{sub:.4g}"
            if not path:
                rows.append([name, cell])
            else:
                cells.append(f"{key}={cell}" if is_dict else cell)
    if cells:
        rows.append([path, "; ".join(cells)])


def figures_section(artifact: dict) -> list[Table]:
    """The artifact's figures, one row per numeric series."""
    rows: list[list[str]] = []
    _series_rows("", artifact["figures"], rows)
    width = max((len(name) for name, _ in rows), default=0)
    return [Table("figures:", ["series", "values"], rows,
                  f"{{:<{width}}}  {{}}")]


def _exact_rows(figures: dict, paper: dict, key: str) -> list[list[str]]:
    rows = []
    for platform, value in paper.items():
        measured = figures[platform][key]
        rows.append([platform, f"{value:,}", f"{measured:,.0f}",
                     "exact" if measured == value else "DIFFERS"])
    return rows


def profile_section(artifact: dict) -> list[Table]:
    """The profile's top frames by self cycles (nothing when unprofiled)."""
    profile = artifact.get("profile")
    if not profile or not profile["combined"]["frames"]:
        return []
    combined = profile["combined"]
    top = sorted(combined["frames"],
                 key=lambda f: (-f["self_cycles"], f["stack"]))[:10]
    return [Table(f"top {len(top)} frames by self cycles (of "
                  f"{combined['total_span_cycles']:,} span cycles across "
                  f"{len(profile['machines'])} machine(s)):",
                  ["self cycles", "stack", "calls"],
                  [[f"{frame['self_cycles']:,}", ";".join(frame["stack"]),
                    str(frame["calls"])] for frame in top],
                  "{:>14}  {}  ({} calls)", text_header=False)]


def paper_section(artifact: dict) -> list[Table]:
    """Paper-vs-measured lines for Tables 1/2 and Figures 8b/8d/11."""
    name, figures = artifact["name"], artifact["figures"]
    if name == "table1_edge_calls":
        what = "Table 1 ECALL cycles"
        rows = _exact_rows(figures, PAPER["table1_ecall"], "ecall")
    elif name == "table2_exceptions":
        what = "Table 2 #UD cycles"
        rows = _exact_rows(figures, PAPER["table2_ud"], "ud")
    elif name == "fig8b_sqlite":
        what = (f"Figure 8b relative throughput over records "
                f"{figures['records']}")
        rows = [[mode, "-", ", ".join(f"{v:.2f}" for v in figures[mode]),
                 ""] for mode in ("GU-Enclave", "HU-Enclave", "SGX")]
    elif name == "fig8d_redis":
        what = "Figure 8d relative max throughput"
        rel = figures["relative_max_throughput"]
        rows = [[mode, f"{paper:.2f}", f"{rel[mode]:.2f}", ""]
                for mode, paper in PAPER["fig8d_relmax"].items()]
    elif name == "fig11_memenc":
        what = "Figure 11 normalized latency at 256 MB"
        rows = [[series, "-", f"{values[-1]:.3g}x", ""]
                for series, values in sorted(figures["normalized"].items())]
    else:
        return []
    return [Table(f"paper vs measured ({what}):",
                  ["row", "paper", "measured", "match"], rows,
                  "{:<20} {:>10} {:>10}  {}")]


def latency_section(artifact: dict) -> list[Table]:
    """The per-enclave latency percentile table."""
    rows = []
    for machine, enclaves in sorted((artifact.get("latency") or {}).items()):
        for enclave, spans in sorted(enclaves.items()):
            for span, row in sorted(spans.items()):
                rows.append([machine, str(enclave), span, str(row["count"]),
                             _fmt_cycles(row.get("p50")),
                             _fmt_cycles(row.get("p95")),
                             _fmt_cycles(row.get("p99"))])
    return [Table("per-enclave latency (simulated cycles):",
                  ["machine", "enclave", "span", "count", "p50", "p95",
                   "p99"], rows,
                  "{:<12} {:<8} {:<18} {:>8} {:>10} {:>10} {:>10}",
                  empty="latency: no per-enclave span histograms recorded")]


def _slowest_table(requests_doc: dict) -> Table:
    from repro.analysis.critpath import slowest_requests
    total = sum(len(trace["requests"]) for trace in requests_doc["traces"])
    rows = []
    for request in slowest_requests(requests_doc, SLOWEST):
        breakdown = request["breakdown"]
        path = " > ".join(
            hop["kind"] + (f":{hop['name']}" if "name" in hop else "")
            + f" ({hop['cycles']:,})" for hop in request["critical_path"])
        rows.append([request["id"] + (" (error)" if request["error"]
                                      else ""),
                     request["tenant"], f"{request['cycles']:,}",
                     ", ".join(f"{cls}={breakdown[cls]:,.0f}"
                               for cls in CLASSES if breakdown.get(cls))
                     or "none", path])
    return Table(f"slowest {len(rows)} of {total} traced requests "
                 f"(simulated cycles):",
                 ["request", "tenant", "cycles", "breakdown",
                  "critical path"], rows,
                 "{}  [{}]  {} cycles\n      breakdown: {}"
                 "\n      critical path: {}", text_header=False)


def requests_section(artifact: dict) -> list[Table]:
    """The request-trace digest: per-call latency, the slowest requests,
    then one interference table per trace (nothing when untraced)."""
    requests_doc = artifact.get("requests")
    if not requests_doc:
        return []
    from repro.analysis.critpath import interference_report, latency_tables
    rows = [[row["trace"], row["tenant"], row["name"], str(row["count"]),
             f"{row['p50']:,}", f"{row['p95']:,}", f"{row['p99']:,}",
             f"{row['max']:,}", row["tail_cause"]]
            for row in latency_tables(requests_doc)]
    out = [Table("traced requests (per tenant and call, simulated cycles):",
                 ["trace", "tenant", "call", "count", "p50", "p95", "p99",
                  "max", "tail cause"], rows,
                 "{:<14} {:<10} {:<16} {:>6} {:>10} {:>10} {:>10} {:>10}  "
                 "{}"),
           _slowest_table(requests_doc)]
    for entry in interference_report(requests_doc):
        out.append(Table(
            f"interference [{entry['trace']}]: victim={entry['victim']} "
            f"aggressor={entry['aggressor']}",
            ["trace", "victim", "aggressor", "frames stolen",
             "requests stalled", "swap-stall cycles"],
            [[entry["trace"], irow["victim"], irow["aggressor"],
              f"{irow['frames_stolen']:g}",
              str(irow["victim_requests_stalled"]),
              f"{irow['victim_swap_stall_cycles']:,.0f}"]
             for irow in entry["rows"]],
            "{1} <- {2}: {3} frames stolen, {4} request(s) stalled for "
            "{5} swap-stall cycles",
            text_header=False,
            empty=f"interference [{entry['trace']}]: no EPC steals "
                  f"recorded"))
    return out


def _summary(artifact: dict) -> list[str]:
    """The lines under an artifact's heading: size and cycles."""
    out = [f"version {artifact['version']}, "
           f"{len(artifact['metrics'])} gated metric(s), "
           f"tolerance {artifact['tolerance']:.1%}"]
    telemetry = artifact.get("telemetry")
    if telemetry:
        out.append(f"simulated cycles: {telemetry['total_cycles']:,.0f} "
                   f"across {telemetry['machines']} machine(s)")
    return out


def _text(table: Table) -> list[str]:
    if not table.rows and table.empty:
        return [f"  {table.empty}"]
    out = [f"  {table.title}"]
    if table.text_header:
        out.append("    " + table.text.format(*table.headers))
    out.extend(f"    {table.text.format(*row)}".rstrip() for row in table.rows)
    return out


def _markdown(table: Table) -> list[str]:
    if not table.rows and table.empty:
        return [f"_{table.empty}_"]
    return [f"**{table.title[:1].upper()}{table.title[1:]}**", "",
            "| " + " | ".join(table.headers) + " |",
            "| " + " | ".join("---" for _ in table.headers) + " |",
            *("| " + " | ".join(row) + " |" for row in table.rows)]


def _render(heading: str, summary: list[str], tables: list[Table],
            fmt: str) -> str:
    if fmt == "markdown":
        out = [f"### {heading}", "", *summary]
        for table in tables:
            out.extend(["", *_markdown(table)])
    else:
        out = [heading, *(f"  {line}" for line in summary)]
        for table in tables:
            out.extend(_text(table))
    return "\n".join(out)


def artifact_report(artifact: dict, fmt: str = "text") -> str:
    """The full digest of one artifact, as ``text`` or ``markdown``."""
    heading = (f"{artifact['name']} — {artifact['title']} "
               f"[{artifact['bench_kind']}]")
    tables = [*figures_section(artifact), *profile_section(artifact),
              *paper_section(artifact), *latency_section(artifact),
              *requests_section(artifact)]
    return _render(heading, _summary(artifact), tables, fmt)


def journal_report(journal, fmt: str = "text") -> str:
    """The digest of one flight-recorder journal (chain verified on
    load)."""
    header = journal.header
    costs = header.get("provenance", {}).get("costs_fingerprint")
    summary = [f"args {header.get('args') or {}}, a checkpoint every "
               f"{header.get('checkpoint_every')} events, costs {costs}",
               f"{len(journal.events)} events, {len(journal.checkpoints)} "
               f"checkpoints (hash chain verified)"]
    rows = [[m["label"], f"{m['total_cycles']:,.0f}", str(m["events"]),
             m["state_hash"]] for m in journal.summary.get("machines", [])]
    return _render(f"journal {header['scenario']}", summary,
                   [Table("machines:", ["machine", "cycles", "events",
                                        "state hash"], rows,
                          "{:<12} {:>14} {:>8}  {}")], fmt)


def bundle_report(bundle: dict, fmt: str = "text") -> str:
    """The digest of one forensic bundle (the state dump stays in the
    file)."""
    error = bundle.get("error")
    # One row per message line: a sanitizer message carries the frame
    # history, and a table cell holds one line.
    first, *rest = error["message"].split("\n") if error else [None]
    cycles = bundle["cycles"]
    stats = bundle["trace_stats"]
    events = bundle["events"][-20:]
    tables = [
        Table("error:", ["type", "code", "message"],
              [[error["type"], error.get("code") or "-", first],
               *(["", "", line] for line in rest)] if error else [],
              "{}  {}  {}", text_header=False,
              empty="error: none recorded"),
        Table("state fingerprints:", ["component", "digest"],
              [[name, digest] for name, digest
               in sorted(bundle["state_fingerprint"].items())],
              "{:<10} {}"),
        Table("cycles:", ["category", "cycles"],
              [["total", f"{cycles['total']:,.0f}"],
               *([name, f"{value:,.0f}"] for name, value
                 in sorted(cycles["by_category"].items()))],
              "{:<20} {:>14}"),
        Table("open spans (outermost first):", ["span"],
              [[name] for name in bundle["open_spans"]], "{}",
              text_header=False, empty="open spans: none"),
        Table("trace ring:", ["recorded", "dropped", "resident",
                              "capacity"],
              [[str(stats["recorded"]), str(stats["dropped"]),
                str(stats["entries"]), str(stats["capacity"])]],
              "{:>10} {:>10} {:>10} {:>10}"),
        Table(f"last {len(events)} events:", ["event"],
              [[event] for event in events], "{}", text_header=False,
              empty="events: none"),
    ]
    return _render(f"forensic bundle {bundle['label']}",
                   [f"state hash {bundle['state_hash']}"], tables, fmt)


def load_record(path: str | pathlib.Path):
    """Read an artifact, a forensic bundle or a journal (its hash chain
    verified), by the document's ``kind``."""
    document = json.loads(pathlib.Path(path).read_text())
    kind = document.get("kind") if isinstance(document, dict) else None
    if kind == JOURNAL_KIND:
        return Journal.from_document(document)
    if kind != BUNDLE_KIND:
        validate_artifact(document)
    return document


def record_report(record, fmt: str = "text") -> str:
    """Digest an artifact, a forensic bundle or a loaded journal."""
    if isinstance(record, Journal):
        return journal_report(record, fmt)
    if record.get("kind") == BUNDLE_KIND:
        return bundle_report(record, fmt)
    return artifact_report(record, fmt)


def report_all(records: list, fmt: str = "text") -> str:
    """Digest every record, blank-line separated."""
    return "\n\n".join(record_report(r, fmt) for r in records)
