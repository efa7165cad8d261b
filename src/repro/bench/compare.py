"""The regression gate: compare a run against a committed baseline.

Every metric in the baseline must exist in the current run and agree
within the benchmark's tolerance band: ``tolerance`` times the
baseline's magnitude, with an absolute floor of 1e-9 so a zero baseline
still compares exactly.  Metrics that appear or disappear are failures
too — a figure that changed shape needs its baseline regenerated, not
silently ignored.  Exact benchmarks (Table 1/2) run with a zero band, so
a single cycle of drift trips the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MetricDelta:
    """One compared metric."""

    metric: str
    baseline: float | None      # None: metric only in the current run
    current: float | None       # None: metric missing from current run
    tolerance: float

    @property
    def status(self) -> str:
        if self.baseline is None:
            return "new"
        if self.current is None:
            return "missing"
        if abs(self.current - self.baseline) <= self.band:
            return "ok"
        return "regressed"

    @property
    def band(self) -> float:
        base = abs(self.baseline) if self.baseline is not None else 0.0
        return max(self.tolerance * base, 1e-9)

    @property
    def rel_change(self) -> float | None:
        if self.baseline in (None, 0.0) or self.current is None:
            return None
        return self.current / self.baseline - 1.0


@dataclass
class FingerprintDelta:
    """One compared state fingerprint: exact string equality, no band.

    A machine's ``state_hash()`` either reproduces bit-identically or
    the run is nondeterministic — there is no "close enough" for a
    determinism gate.
    """

    metric: str
    baseline: str | None
    current: str | None
    tolerance: float = 0.0

    @property
    def status(self) -> str:
        if self.baseline is None:
            return "new"
        if self.current is None:
            return "missing"
        if self.baseline == self.current:
            return "ok"
        return "regressed"

    @property
    def rel_change(self) -> None:
        return None


@dataclass
class CompareResult:
    """The gate verdict for one benchmark."""

    name: str
    tolerance: float
    deltas: list[MetricDelta] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    claim_ok: bool = True       # False: a paper claim failed (see notes)

    @property
    def failures(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status != "ok"]

    @property
    def ok(self) -> bool:
        return not self.failures and self.claim_ok

    def as_dict(self) -> dict:
        return {
            "name": self.name, "ok": self.ok, "claim_ok": self.claim_ok,
            "tolerance": self.tolerance, "notes": self.notes,
            "checked": len(self.deltas),
            "failures": [{
                "metric": d.metric, "status": d.status,
                "baseline": d.baseline, "current": d.current,
                "rel_change": d.rel_change,
            } for d in self.failures],
        }


def compare_artifacts(baseline: dict, current: dict,
                      tolerance: float | None = None) -> CompareResult:
    """Gate one current artifact against its committed baseline."""
    name = baseline.get("name", "?")
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", 0.01))
    result = CompareResult(name=name, tolerance=tolerance)

    base_fp = baseline.get("provenance", {}).get("costs_fingerprint")
    cur_fp = current.get("provenance", {}).get("costs_fingerprint")
    if base_fp and cur_fp and base_fp != cur_fp:
        result.notes.append(
            f"cost model changed since the baseline was recorded "
            f"({base_fp} -> {cur_fp}); if intentional, regenerate with "
            f"`python -m repro.bench run {name}`")

    base_metrics: dict = baseline["metrics"]
    cur_metrics: dict = current["metrics"]

    for metric in sorted(set(base_metrics) | set(cur_metrics)):
        result.deltas.append(MetricDelta(
            metric=metric,
            baseline=base_metrics.get(metric),
            current=cur_metrics.get(metric),
            tolerance=tolerance))

    # State fingerprints gate on exact equality (determinism check).
    # Baselines that predate the fingerprints field skip the check —
    # regenerating them opts in.
    base_fps: dict = baseline.get("fingerprints") or {}
    cur_fps: dict = current.get("fingerprints") or {}
    if base_fps:
        for label in sorted(set(base_fps) | set(cur_fps)):
            result.deltas.append(FingerprintDelta(
                metric=f"state_hash.{label}",
                baseline=base_fps.get(label),
                current=cur_fps.get(label)))
    return result


def _fmt(value: float | str | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):                 # state-hash fingerprints
        return value[:16] + "…" if len(value) > 16 else value
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:.6g}"


def compare_report(results: list[CompareResult], *,
                   verbose: bool = False) -> str:
    """Plain-text gate report over every compared benchmark."""
    out = []
    for result in results:
        verdict = "ok" if result.ok else \
            "REGRESSED" if result.failures else "CLAIM FAILED"
        out.append(f"[{verdict}] {result.name}: "
                   f"{len(result.deltas)} metric(s) checked, "
                   f"{len(result.failures)} outside the "
                   f"{result.tolerance:.1%} band")
        for note in result.notes:
            out.append(f"  note: {note}")
        shown = result.failures if not verbose else result.deltas
        for d in shown:
            rel = d.rel_change
            rel_text = f" ({rel:+.2%})" if rel is not None else ""
            out.append(f"  {d.status:<9} {d.metric}: "
                       f"{_fmt(d.baseline)} -> {_fmt(d.current)}{rel_text}")
    failed = [r.name for r in results if not r.ok]
    out.append("")
    if failed:
        out.append(f"GATE FAILED: {', '.join(failed)}")
    else:
        out.append(f"gate passed: {len(results)} benchmark(s) within "
                   f"tolerance")
    return "\n".join(out)
