"""Human-readable digests of ``BENCH_<name>.json`` artifacts.

``python -m repro.bench report`` renders, per artifact: the cycle
digest and the per-enclave latency percentile table (p50/p95/p99 in
simulated cycles, Stress-SGX-style), plus the timeline and request
digests when the artifact carries them.  It reads committed baselines
by default, so it is one command with no benchmark run.  Host speed is
``perfbench``'s job, not this report's.

``--format markdown`` renders the same digests as GitHub-flavored
markdown tables, ready to paste into a PR description or job summary.
"""

from __future__ import annotations


def _fmt_cycles(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:,.0f}"


def latency_section(artifact: dict) -> list[str]:
    """Render the per-enclave latency percentile table."""
    latency = artifact.get("latency")
    if not latency:
        return ["  latency: no per-enclave span histograms recorded"]
    out = ["  per-enclave latency (simulated cycles):",
           f"    {'machine':<12} {'enclave':<8} {'span':<18} "
           f"{'count':>8} {'p50':>10} {'p95':>10} {'p99':>10}"]
    for machine, enclaves in sorted(latency.items()):
        for enclave, spans in sorted(enclaves.items()):
            for span, row in sorted(spans.items()):
                out.append(
                    f"    {machine:<12} {enclave:<8} {span:<18} "
                    f"{row['count']:>8} "
                    f"{_fmt_cycles(row.get('p50')):>10} "
                    f"{_fmt_cycles(row.get('p95')):>10} "
                    f"{_fmt_cycles(row.get('p99')):>10}")
    return out


def _timeline_episodes(artifact: dict) -> list[dict]:
    """Pressure episodes of the artifact's ``timeline`` block, labeled."""
    timeline_doc = artifact.get("timeline")
    if not timeline_doc:
        return []
    from repro.telemetry.timeline import detect_episodes
    episodes = []
    for timeline in timeline_doc.get("timelines", []):
        for ep in detect_episodes(timeline):
            episodes.append({"machine": timeline["label"], **ep})
    return episodes


def timeline_section(artifact: dict) -> list[str]:
    """Render the timeline pressure-episode table (empty when untimed)."""
    episodes = _timeline_episodes(artifact)
    if not episodes:
        return []
    out = ["  EPC pressure episodes (from the timeline block):",
           f"    {'machine':<14} {'start cycle':>14} {'end cycle':>14} "
           f"{'pages':>7} {'depth':>7}  victim -> aggressor"]
    for ep in episodes:
        out.append(f"    {ep['machine']:<14} {ep['start_cycle']:>14,} "
                   f"{ep['end_cycle']:>14,} {ep['pages']:>7g} "
                   f"{ep['depth']:>7g}  {ep['victim']} -> "
                   f"{ep['aggressor']}")
    return out


def requests_section(artifact: dict) -> list[str]:
    """Render the request-trace digest (empty when untraced)."""
    requests_doc = artifact.get("requests")
    if not requests_doc:
        return []
    from repro.analysis.critpath import interference_report, latency_tables
    out = ["  traced requests (per tenant and call, simulated cycles):",
           f"    {'trace':<14} {'tenant':<10} {'call':<16} {'count':>6} "
           f"{'p50':>10} {'p95':>10} {'p99':>10}  tail cause"]
    for row in latency_tables(requests_doc):
        out.append(f"    {row['trace']:<14} {row['tenant']:<10} "
                   f"{row['name']:<16} {row['count']:>6} "
                   f"{row['p50']:>10,} {row['p95']:>10,} "
                   f"{row['p99']:>10,}  {row['tail_cause']}")
    for entry in interference_report(requests_doc):
        out.append(f"  interference [{entry['trace']}]: "
                   f"victim={entry['victim']} "
                   f"aggressor={entry['aggressor']}")
        for irow in entry["rows"]:
            out.append(f"    {irow['victim']} <- {irow['aggressor']}: "
                       f"{irow['frames_stolen']:g} frames stolen, "
                       f"{irow['victim_requests_stalled']} request(s) "
                       f"stalled")
    return out


def artifact_report(artifact: dict) -> str:
    """The full plain-text digest of one artifact."""
    out = [f"{artifact['name']} — {artifact['title']} "
           f"[{artifact['bench_kind']}]",
           f"  artifact_version {artifact['artifact_version']}, "
           f"{len(artifact['metrics'])} gated metric(s), "
           f"tolerance {artifact['tolerance']:.1%}"]
    telemetry = artifact.get("telemetry")
    if telemetry:
        out.append(f"  simulated cycles: {telemetry['total_cycles']:,.0f} "
                   f"across {telemetry['machines']} machine(s)")
    out.extend(latency_section(artifact))
    out.extend(timeline_section(artifact))
    out.extend(requests_section(artifact))
    return "\n".join(out)


def report_all(artifacts: list[dict]) -> str:
    """Digest every artifact, blank-line separated."""
    return "\n\n".join(artifact_report(a) for a in artifacts)


def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    out = ["| " + " | ".join(header) + " |",
           "| " + " | ".join("---" for _ in header) + " |"]
    out.extend("| " + " | ".join(row) + " |" for row in rows)
    return out


def latency_section_markdown(artifact: dict) -> list[str]:
    """Markdown twin of :func:`latency_section`."""
    latency = artifact.get("latency")
    if not latency:
        return ["_latency: no per-enclave span histograms recorded_"]
    rows = []
    for machine, enclaves in sorted(latency.items()):
        for enclave, spans in sorted(enclaves.items()):
            for span, row in sorted(spans.items()):
                rows.append([machine, str(enclave), span,
                             str(row["count"]),
                             _fmt_cycles(row.get("p50")),
                             _fmt_cycles(row.get("p95")),
                             _fmt_cycles(row.get("p99"))])
    out = ["**Per-enclave latency (simulated cycles):**", ""]
    out.extend(_md_table(
        ["machine", "enclave", "span", "count", "p50", "p95", "p99"], rows))
    return out


def timeline_section_markdown(artifact: dict) -> list[str]:
    """Markdown twin of :func:`timeline_section`."""
    episodes = _timeline_episodes(artifact)
    if not episodes:
        return []
    rows = [[ep["machine"], f"{ep['start_cycle']:,}",
             f"{ep['end_cycle']:,}", f"{ep['pages']:g}",
             f"{ep['depth']:g}", ep["victim"], ep["aggressor"]]
            for ep in episodes]
    out = ["**EPC pressure episodes (from the timeline block):**", ""]
    out.extend(_md_table(["machine", "start cycle", "end cycle", "pages",
                          "depth", "victim", "aggressor"], rows))
    return out


def requests_section_markdown(artifact: dict) -> list[str]:
    """Markdown twin of :func:`requests_section`."""
    requests_doc = artifact.get("requests")
    if not requests_doc:
        return []
    from repro.analysis.critpath import interference_report, latency_tables
    rows = [[row["trace"], row["tenant"], row["name"], str(row["count"]),
             f"{row['p50']:,}", f"{row['p95']:,}", f"{row['p99']:,}",
             row["tail_cause"]]
            for row in latency_tables(requests_doc)]
    out = ["**Traced requests (per tenant and call, simulated cycles):**",
           ""]
    out.extend(_md_table(["trace", "tenant", "call", "count", "p50",
                          "p95", "p99", "tail cause"], rows))
    irows = [[entry["trace"], irow["victim"], irow["aggressor"],
              f"{irow['frames_stolen']:g}",
              str(irow["victim_requests_stalled"])]
             for entry in interference_report(requests_doc)
             for irow in entry["rows"]]
    if irows:
        out.append("")
        out.append("**Cross-tenant interference (EPC steals):**")
        out.append("")
        out.extend(_md_table(["trace", "victim", "aggressor",
                              "frames stolen", "requests stalled"], irows))
    return out


def artifact_report_markdown(artifact: dict) -> str:
    """The full GitHub-flavored-markdown digest of one artifact."""
    out = [f"### {artifact['name']} — {artifact['title']} "
           f"[{artifact['bench_kind']}]",
           "",
           f"artifact_version {artifact['artifact_version']}, "
           f"{len(artifact['metrics'])} gated metric(s), "
           f"tolerance {artifact['tolerance']:.1%}"]
    telemetry = artifact.get("telemetry")
    if telemetry:
        out.append(f"simulated cycles: {telemetry['total_cycles']:,.0f} "
                   f"across {telemetry['machines']} machine(s)")
    out.append("")
    out.extend(latency_section_markdown(artifact))
    for section in (timeline_section_markdown(artifact),
                    requests_section_markdown(artifact)):
        if section:
            out.append("")
            out.extend(section)
    return "\n".join(out)


def report_all_markdown(artifacts: list[dict]) -> str:
    """Markdown digest of every artifact, blank-line separated."""
    return "\n\n".join(artifact_report_markdown(a) for a in artifacts)
