"""Critical-path analysis over request traces.

Consumes the requests JSON documents produced by
:mod:`repro.telemetry.requests` and derives the *why was this slow*
answers: per-request critical paths through the causal segment tree,
per-request cycle breakdowns into the coarse
:data:`~repro.hw.cycles.CLASSES`, per-tenant and per-call-name p50/p95/p99
latency tables with an attributed tail cause, the slowest requests, and
the cross-tenant interference report (which tenant's EPC steals stalled
whose requests).  :mod:`repro.bench.report` renders them as tables.

Everything here is a pure function of the input document — no host
time, no randomness, no I/O — so reports are bit-reproducible across
runs, hot-path implementations and flight-recorder replay, and the
module holds the staticcheck SC001 determinism bar alongside the
tracer that feeds it.

Categories fold into classes through the one registry,
:data:`repro.hw.cycles.CATEGORIES`.
"""

from __future__ import annotations

import math

from repro.hw.cycles import CLASSES, critpath_class

# CLASSES is re-exported: perfbench/layers.py imports it from here.
__all__ = [
    "CLASSES", "critical_path", "critpath_class", "interference_report",
    "latency_tables", "percentile", "pick_steal_pair", "request_breakdown",
    "request_duration", "slowest_requests", "steal_pair",
]

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


def interference_report(document: dict) -> list[dict]:
    """Which tenant's EPC steals stalled whose requests.

    One entry per trace: the folded steal pairs, the overall
    victim/aggressor (chosen by :func:`pick_steal_pair`), and per-pair
    rows counting the victim's stalled requests and swap-stall
    cycles.
    """
    out: list[dict] = []
    for trace in document["traces"]:
        pairs: dict[str, float] = {}
        for request in trace["requests"]:
            for key, count in request["steals"].items():
                pairs[key] = pairs.get(key, 0) + count
        chosen, victim, aggressor = pick_steal_pair(pairs)

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
            v, a = steal_pair(key)
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


# -- the tail ----------------------------------------------------------------


def slowest_requests(document: dict, limit: int) -> list[dict]:
    """The ``limit`` slowest requests, slowest first (ties break on the
    request id), each with its breakdown and critical path."""
    flat = [(trace, request) for trace in document["traces"]
            for request in trace["requests"]]
    flat.sort(key=lambda item: (-request_duration(item[1]), item[1]["id"]))
    return [{"id": request["id"], "name": request["name"],
             "tenant": _display(trace, request["tenant"]),
             "cycles": request_duration(request), "error": request["error"],
             "breakdown": request_breakdown(request),
             "critical_path": critical_path(request)}
            for trace, request in flat[:limit]]
