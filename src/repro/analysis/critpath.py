"""Critical-path analysis over request traces.

Consumes the requests JSON documents produced by
:mod:`repro.telemetry.requests` and derives the *why was this slow*
answers: per-request critical paths through the causal segment tree,
per-request cycle breakdowns into five coarse classes
(``enclave-compute`` / ``world-switch`` / ``marshalling`` /
``swap-stall`` / ``kernel``), per-tenant and per-call-name p50/p95/p99
latency tables with an attributed tail cause, and the cross-tenant
interference report (which tenant's EPC steals stalled whose requests).

Everything here is a pure function of the input document — no host
time, no randomness, no I/O — so reports are bit-reproducible across
runs, hot-path implementations and flight-recorder replay, and the
module holds the staticcheck SC001 determinism bar alongside the
tracer that feeds it.

The victim/aggressor attribution rules intentionally mirror the
timeline pressure-episode detector (`repro.telemetry.timeline._episode`):
cross-tenant steal pairs are preferred over self-steals, and ties break
deterministically via ``max(sorted(...))``.
"""

from __future__ import annotations

import math

#: The five breakdown classes (plus the total-preserving catch-all).
CLASSES = ("enclave-compute", "world-switch", "marshalling",
           "swap-stall", "kernel", "other")

_EXACT_CLASS = {
    # world switch
    "tlb-warmup": "world-switch",
    # edge-call marshalling
    "memcpy": "marshalling", "sdk-ecall": "marshalling",
    "sdk-ocall": "marshalling", "switchless": "marshalling",
    # EPC pressure stalls
    "swap-in": "swap-stall", "swap-out": "swap-stall",
    "demand-paging": "swap-stall", "edmm-sgx2": "swap-stall",
    # monitor / OS kernel work
    "hypercall": "kernel", "tlb-shootdown": "kernel",
    "pte-update": "kernel", "interrupt": "kernel",
    "measure": "kernel", "seal": "kernel", "seal-key": "kernel",
    "syscall": "kernel", "kernel-work": "kernel", "ctxsw": "kernel",
    "pte-fill": "kernel", "os-fault": "kernel", "signal": "kernel",
    "npt-fill": "kernel", "vfs": "kernel", "link": "kernel",
    # in-enclave (and native) execution
    "enclave-memory": "enclave-compute", "native-memory": "enclave-compute",
    "memory": "enclave-compute", "compute": "enclave-compute",
    "own-pt-update": "enclave-compute", "invlpg": "enclave-compute",
    "resident-touch": "enclave-compute",
}
_PREFIX_CLASS = {
    "eenter": "world-switch", "eexit": "world-switch",
    "aex": "world-switch", "eresume": "world-switch",
    # Exception-handler and page-fault trampoline work executes inside
    # the enclave on the request's behalf.
    "exception": "enclave-compute", "pf": "enclave-compute",
}


def critpath_class(category: str) -> str:
    """Fold a cycle-charge category into a critical-path class.

    Total like :func:`repro.telemetry.core.subsystem_for_category`:
    unknown categories land in ``other``, so class totals always sum
    exactly to the request total.
    """
    cls = _EXACT_CLASS.get(category)
    if cls is not None:
        return cls
    head = category.split(":", 1)[0]
    return _PREFIX_CLASS.get(head, _EXACT_CLASS.get(head, "other"))


# -- per-request analysis ----------------------------------------------------


def request_duration(request: dict) -> int:
    """Cycle-domain wall duration of one request."""
    return request["end"] - request["begin"]


def request_breakdown(request: dict) -> dict[str, float]:
    """The request's charged cycles folded into critical-path classes."""
    out: dict[str, float] = {}
    for category, cycles in request["categories"].items():
        cls = critpath_class(category)
        out[cls] = out.get(cls, 0) + cycles
    return out


def _segment_cycles(segment: dict) -> int:
    return segment["end"] - segment["begin"]


def critical_path(request: dict) -> list[dict]:
    """The heaviest root-to-leaf chain through the segment tree.

    Returns one hop per level, root (the request itself) first; each
    hop carries its span and self cycles (duration minus children).
    """
    hops: list[dict] = []
    node = {"kind": "request", "name": request["name"],
            "begin": request["begin"], "end": request["end"],
            "segments": request["segments"]}
    while True:
        children = node["segments"]
        cycles = node["end"] - node["begin"]
        hop = {"kind": node["kind"], "begin": node["begin"],
               "end": node["end"], "cycles": cycles,
               "self_cycles": cycles - sum(_segment_cycles(c)
                                           for c in children)}
        if "name" in node:
            hop["name"] = node["name"]
        hops.append(hop)
        if not children:
            return hops
        # Deterministic tie-break: the *earliest* of the heaviest.
        node = max(children,
                   key=lambda c: (_segment_cycles(c), -c["begin"]))


# -- latency tables ----------------------------------------------------------


def percentile(sorted_values: list, q: float):
    """Exact nearest-rank percentile over an ascending-sorted list."""
    if not sorted_values:
        return 0
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[max(0, min(rank, len(sorted_values)) - 1)]


def _display(trace: dict, tenant: str) -> str:
    return str(trace.get("tenants", {}).get(tenant, tenant))


def latency_tables(document: dict) -> list[dict]:
    """Per-(tenant, call-name) latency rows with attributed tail cause.

    Each row reports count, p50/p95/p99/max cycle latency, and the
    breakdown class that dominates the tail (requests at or above the
    p99 latency) — e.g. ``tail_cause = "p99 dominated by swap-stall"``.
    """
    rows: list[dict] = []
    for trace in document["traces"]:
        groups: dict[tuple[str, str], list[dict]] = {}
        for request in trace["requests"]:
            groups.setdefault((request["tenant"], request["name"]),
                              []).append(request)
        for (tenant, name) in sorted(groups):
            requests = groups[(tenant, name)]
            durations = sorted(request_duration(r) for r in requests)
            p99 = percentile(durations, 0.99)
            tail = [r for r in requests if request_duration(r) >= p99]
            cause: dict[str, float] = {}
            for request in tail:
                for cls, cycles in request_breakdown(request).items():
                    cause[cls] = cause.get(cls, 0) + cycles
            tail_class = (max(sorted(cause), key=lambda k: cause[k])
                          if cause else None)
            tail_total = sum(cause.values())
            tail_share = (cause[tail_class] / tail_total
                          if tail_class and tail_total else 0.0)
            rows.append({
                "trace": trace["label"],
                "enclave": tenant,
                "tenant": _display(trace, tenant),
                "name": name,
                "count": len(requests),
                "errors": sum(1 for r in requests if r["error"]),
                "p50": percentile(durations, 0.50),
                "p95": percentile(durations, 0.95),
                "p99": p99,
                "max": durations[-1],
                "tail_class": tail_class,
                "tail_share": round(tail_share, 4),
                "tail_cause": (f"p99 dominated by {tail_class} "
                               f"({tail_share:.0%})"
                               if tail_class else "n/a"),
            })
    return rows


# -- cross-tenant interference -----------------------------------------------


def _pair(key: str) -> tuple[str, str]:
    victim, sep, aggressor = key.partition("->")
    return (victim, aggressor if sep else victim)


def interference_report(document: dict) -> list[dict]:
    """Which tenant's EPC steals stalled whose requests.

    One entry per trace: the folded steal pairs, the overall
    victim/aggressor (same preference and tie-break rules as the
    timeline episode detector, so the two reports always agree), and
    per-pair rows counting the victim's stalled requests and swap-stall
    cycles.
    """
    out: list[dict] = []
    for trace in document["traces"]:
        pairs: dict[str, float] = {}
        for request in trace["requests"]:
            for key, count in request["steals"].items():
                pairs[key] = pairs.get(key, 0) + count
        cross = {k: v for k, v in pairs.items() if _pair(k)[0] != _pair(k)[1]}
        chosen = cross or pairs
        victim = aggressor = None
        if chosen:
            stolen_from: dict[str, float] = {}
            stolen_by: dict[str, float] = {}
            for key, count in chosen.items():
                v, a = _pair(key)
                stolen_from[v] = stolen_from.get(v, 0) + count
                stolen_by[a] = stolen_by.get(a, 0) + count
            victim = max(sorted(stolen_from), key=lambda k: stolen_from[k])
            aggressor = max(sorted(stolen_by), key=lambda k: stolen_by[k])

        # Swap-stall exposure per tenant: how many of its requests
        # actually stalled, and for how many cycles.
        stalled: dict[str, int] = {}
        stall_cycles: dict[str, float] = {}
        for request in trace["requests"]:
            cycles = request_breakdown(request).get("swap-stall", 0)
            if cycles > 0:
                tenant = request["tenant"]
                stalled[tenant] = stalled.get(tenant, 0) + 1
                stall_cycles[tenant] = stall_cycles.get(tenant, 0) + cycles

        rows = []
        for key in sorted(chosen):
            v, a = _pair(key)
            rows.append({
                "victim": _display(trace, v),
                "aggressor": _display(trace, a),
                "frames_stolen": chosen[key],
                "victim_requests_stalled": stalled.get(v, 0),
                "victim_swap_stall_cycles": stall_cycles.get(v, 0),
            })
        out.append({
            "trace": trace["label"],
            "pairs": dict(sorted(pairs.items())),
            "victim": None if victim is None else _display(trace, victim),
            "aggressor": (None if aggressor is None
                          else _display(trace, aggressor)),
            "rows": rows,
        })
    return out


# -- text renderers (the ``requests`` CLI and bench digests) -----------------


def requests_report(document: dict) -> str:
    """Plain-text latency digest of a requests document."""
    lines: list[str] = []
    for trace in document["traces"]:
        requests = trace["requests"]
        lines.append(f"requests [{trace['label']}]: "
                     f"{len(requests)} traced request(s)")
    rows = latency_tables(document)
    if rows:
        lines.append(f"  {'tenant':<12} {'call':<16} {'n':>4} "
                     f"{'p50':>12} {'p95':>12} {'p99':>12} {'max':>12}  "
                     f"tail cause")
        for row in rows:
            lines.append(
                f"  {row['tenant']:<12} {row['name']:<16} "
                f"{row['count']:>4} {row['p50']:>12,} {row['p95']:>12,} "
                f"{row['p99']:>12,} {row['max']:>12,}  "
                f"{row['tail_cause']}")
    return "\n".join(lines)


def slowest_requests(document: dict, *, limit: int = 10) -> str:
    """The slowest requests with their critical paths, one block each."""
    flat: list[tuple[dict, dict]] = []
    for trace in document["traces"]:
        for request in trace["requests"]:
            flat.append((trace, request))
    flat.sort(key=lambda item: (-request_duration(item[1]),
                                item[1]["id"]))
    lines: list[str] = []
    for trace, request in flat[:limit]:
        duration = request_duration(request)
        lines.append(f"{request['id']}  {request['name']} "
                     f"[{_display(trace, request['tenant'])}]  "
                     f"{duration:,} cycles"
                     + ("  ERROR" if request["error"] else ""))
        breakdown = request_breakdown(request)
        parts = [f"{cls}={breakdown[cls]:,.0f}"
                 for cls in CLASSES if breakdown.get(cls)]
        lines.append(f"  breakdown: {', '.join(parts) or 'none'}")
        hops = critical_path(request)
        chain = " > ".join(
            f"{hop['kind']}" + (f":{hop['name']}" if "name" in hop else "")
            + f" ({hop['cycles']:,})" for hop in hops)
        lines.append(f"  critical path: {chain}")
    if not lines:
        lines.append("no requests traced")
    return "\n".join(lines)


def interference_text(document: dict) -> str:
    """Plain-text cross-tenant interference digest."""
    lines: list[str] = []
    for entry in interference_report(document):
        lines.append(f"interference [{entry['trace']}]: "
                     f"victim={entry['victim']} "
                     f"aggressor={entry['aggressor']}")
        if not entry["rows"]:
            lines.append("  no EPC steals recorded")
            continue
        for row in entry["rows"]:
            lines.append(
                f"  {row['victim']} <- {row['aggressor']}: "
                f"{row['frames_stolen']:g} frames stolen, "
                f"{row['victim_requests_stalled']} victim request(s) "
                f"stalled for {row['victim_swap_stall_cycles']:,.0f} "
                f"swap-stall cycles")
    return "\n".join(lines)
