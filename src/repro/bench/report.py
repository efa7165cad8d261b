"""Human-readable digests of ``BENCH_<name>.json`` artifacts.

``python -m repro.bench report`` renders, per artifact: the cycle
digest and hottest profile frame, the paper-vs-measured lines for the
paper's headline tables and figures, the per-enclave latency percentile
table (p50/p95/p99 in simulated cycles, Stress-SGX-style), plus the
timeline and request digests when the artifact carries them.  It reads
committed baselines by default, so it is one command with no benchmark
run.  Host speed is ``perfbench``'s job, not this report's.

Each section builds its rows once as :class:`Table` blocks; one renderer
emits them as plain text or, with ``--format markdown``, as
GitHub-flavored markdown tables ready to paste into a PR description or
job summary.
"""

from __future__ import annotations

from dataclasses import dataclass

# The paper's headline numbers, for side-by-side rendering.
PAPER = {
    "table1_ecall": {"HU-Enclave": 8440, "GU-Enclave": 9480,
                     "P-Enclave": 9700, "Intel SGX": 14432},
    "table2_ud": {"P-Enclave": 258, "GU-Enclave": 17490,
                  "Intel SGX": 28561},
    "fig8d_relmax": {"HU-Enclave": 0.89, "GU-Enclave": 0.72, "SGX": 0.48},
}


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


def _exact_rows(figures: dict, paper: dict, key: str) -> list[list[str]]:
    rows = []
    for platform, value in paper.items():
        measured = figures[platform][key]
        rows.append([platform, f"{value:,}", f"{measured:,.0f}",
                     "exact" if measured == value else "DIFFERS"])
    return rows


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


def timeline_section(artifact: dict) -> list[Table]:
    """The timeline pressure-episode table (nothing when untimed)."""
    timeline_doc = artifact.get("timeline")
    if not timeline_doc:
        return []
    from repro.telemetry.timeline import detect_episodes
    rows = [[timeline["label"], f"{ep['start_cycle']:,}",
             f"{ep['end_cycle']:,}", f"{ep['pages']:g}", f"{ep['depth']:g}",
             ep["victim"], ep["aggressor"]]
            for timeline in timeline_doc.get("timelines", [])
            for ep in detect_episodes(timeline)]
    if not rows:
        return []
    return [Table("EPC pressure episodes (from the timeline block):",
                  ["machine", "start cycle", "end cycle", "pages", "depth",
                   "victim", "aggressor"], rows,
                  "{:<14} {:>14} {:>14} {:>7} {:>7}  {} -> {}")]


def requests_section(artifact: dict) -> list[Table]:
    """The request-trace digest: per-call latency, then one interference
    table per trace (nothing when untraced)."""
    requests_doc = artifact.get("requests")
    if not requests_doc:
        return []
    from repro.analysis.critpath import interference_report, latency_tables
    rows = [[row["trace"], row["tenant"], row["name"], str(row["count"]),
             f"{row['p50']:,}", f"{row['p95']:,}", f"{row['p99']:,}",
             row["tail_cause"]]
            for row in latency_tables(requests_doc)]
    out = [Table("traced requests (per tenant and call, simulated cycles):",
                 ["trace", "tenant", "call", "count", "p50", "p95", "p99",
                  "tail cause"], rows,
                 "{:<14} {:<10} {:<16} {:>6} {:>10} {:>10} {:>10}  {}")]
    for entry in interference_report(requests_doc):
        out.append(Table(
            f"interference [{entry['trace']}]: victim={entry['victim']} "
            f"aggressor={entry['aggressor']}",
            ["trace", "victim", "aggressor", "frames stolen",
             "requests stalled"],
            [[entry["trace"], irow["victim"], irow["aggressor"],
              f"{irow['frames_stolen']:g}",
              str(irow["victim_requests_stalled"])]
             for irow in entry["rows"]],
            "{1} <- {2}: {3} frames stolen, {4} request(s) stalled",
            text_header=False))
    return out


def _summary(artifact: dict) -> list[str]:
    """The lines under an artifact's heading: size, cycles, hottest frame."""
    out = [f"artifact_version {artifact['artifact_version']}, "
           f"{len(artifact['metrics'])} gated metric(s), "
           f"tolerance {artifact['tolerance']:.1%}"]
    telemetry = artifact.get("telemetry")
    if telemetry:
        out.append(f"simulated cycles: {telemetry['total_cycles']:,.0f} "
                   f"across {telemetry['machines']} machine(s)")
    profile = artifact.get("profile")
    if profile and profile.get("top_self"):
        top = profile["top_self"][0]
        out.append(f"hottest frame: {top['stack']} "
                   f"({top['self_cycles']:,} self cycles, "
                   f"{top['calls']} calls)")
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


def artifact_report(artifact: dict, fmt: str = "text") -> str:
    """The full digest of one artifact, as ``text`` or ``markdown``."""
    heading = (f"{artifact['name']} — {artifact['title']} "
               f"[{artifact['bench_kind']}]")
    tables = [*paper_section(artifact), *latency_section(artifact),
              *timeline_section(artifact), *requests_section(artifact)]
    if fmt == "markdown":
        out = [f"### {heading}", "", *_summary(artifact)]
        for table in tables:
            out.extend(["", *_markdown(table)])
    else:
        out = [heading, *(f"  {line}" for line in _summary(artifact))]
        for table in tables:
            out.extend(_text(table))
    return "\n".join(out)


def report_all(artifacts: list[dict], fmt: str = "text") -> str:
    """Digest every artifact, blank-line separated."""
    return "\n\n".join(artifact_report(a, fmt) for a in artifacts)
