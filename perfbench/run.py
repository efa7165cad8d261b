"""The repository benchmark: closed-loop serving workloads on HyperEnclave.

Run from the repository root::

    python3 perfbench/run.py --workload kv-ycsb-a --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same requests untraced and then traced and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every reply and check was
correct.  ``perfbench/README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform as host_platform
import resource
import statistics
import sys
import time
import traceback

from hostspeed import HostTimer

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Set-ups per run (setup_s is their median): at least MIN_SETUPS, more
# while they have taken under MIN_SETUP_S, up to MAX_SETUPS.
MIN_SETUPS, MIN_SETUP_S, MAX_SETUPS = 3, 4.0, 25
SMOKE_REQUESTS = 40              # --smoke: requests per window and warm-up


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed: int) -> dict:
    from repro.hw import fastpath
    from workloads import CLIENTS
    return {"seed": seed, "fastpath": fastpath.mode_name(),
            "python": host_platform.python_version(),
            "nproc": os.cpu_count(), "clients": CLIENTS,
            "git": _git_revision(), "src_sha256": _source_digest()}


class Window:
    """Closed-loop requests: per-request host time and simulated cycles.

    ``host_ns``/``elapsed_ns`` are raw host times; ``ref_ns``/
    ``ref_elapsed_ns`` are the same scaled to reference host speed (see
    ``hostspeed``).  The elapsed times leave out the calibration samples;
    ``wall_ns`` is the window's wall-clock time, calibration included.
    """

    def __init__(self) -> None:
        self.host_ns: list[int] = []
        self.ref_ns: list[float] = []
        self.sim_cycles: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.elapsed_ns = 0
        self.ref_elapsed_ns = 0.0
        self.wall_ns = 0
        self.cycles = 0.0


def run_requests(wl, *, min_requests: int, seconds: float = 0.0) -> Window:
    """Run requests until ``seconds`` pass and ``min_requests`` are done.

    A :class:`~hostspeed.HostTimer` cuts the window into segments; the
    requests of each segment are scaled by its reference-speed scale.
    """
    window = Window()
    timer = HostTimer()
    counter = wl.platform.machine.cycles
    first_cycle = counter.total
    wall_start = time.perf_counter_ns()
    deadline = wall_start + int(seconds * 1e9)
    firsts = [0]                 # first request of each segment
    while window.attempted < min_requests or \
            time.perf_counter_ns() < deadline:
        if timer.tick():
            firsts.append(len(window.host_ns))
        before = counter.total
        window.attempted += 1
        try:
            elapsed, ok = wl.request()
        except Exception:
            if not window.failed:
                traceback.print_exc()
            window.failed += 1
            continue
        window.host_ns.append(elapsed)
        window.sim_cycles.append(counter.total - before)
        if not ok:
            window.failed += 1
    timer.stop()
    window.cycles = counter.total - first_cycle
    window.wall_ns = time.perf_counter_ns() - wall_start

    window.elapsed_ns, window.ref_elapsed_ns = timer.elapsed()
    lasts = firsts[1:] + [len(window.host_ns)]
    for scale, first, last in zip(timer.scales(), firsts, lasts):
        window.ref_ns.extend(ns * scale for ns in window.host_ns[first:last])
    return window


def warm_up(wl, requests: int) -> None:
    window = run_requests(wl, min_requests=requests)
    if window.failed:
        from workloads import WorkloadError
        raise WorkloadError(f"{window.failed} of {requests} warm-up "
                            f"requests failed")


def set_up(cls, seed: int, smoke: bool):
    """Build the workload repeatedly; returns it and the set-up times.

    Each time is ``(raw s, reference-speed s)``; the workload ticks the
    timer during its preload.
    """
    times = []
    wl = None
    while len(times) < (1 if smoke else MIN_SETUPS) or (
            not smoke and sum(raw for raw, _ in times) < MIN_SETUP_S
            and len(times) < MAX_SETUPS):
        wl = None                       # free the previous platform first
        gc.collect()
        timer = HostTimer()
        wl = cls(seed, smoke=smoke, tick=timer.tick)
        timer.stop()
        raw, ref = timer.elapsed()
        times.append((raw / 1e9, ref / 1e9))
    return wl, times


def end_to_end(cls, seed: int, seconds: float, smoke: bool):
    """The untraced run: set up several times, warm up, measure."""
    wl, setups = set_up(cls, seed, smoke)
    sim_requests = SMOKE_REQUESTS if smoke else cls.sim_requests
    warm_up(wl, SMOKE_REQUESTS if smoke else cls.warmup_requests)
    gc.collect()
    window = run_requests(wl, min_requests=sim_requests, seconds=seconds)
    ref_ms = sorted(ns / 1e6 for ns in window.ref_ns)
    raw_ms = sorted(ns / 1e6 for ns in window.host_ns)
    kcycles = sorted(c / 1e3 for c in window.sim_cycles[:sim_requests])
    done = len(window.host_ns)
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "req_per_s": (done / (window.ref_elapsed_ns / 1e9), "req/s"),
        "host_ms_p50": (percentile(ref_ms, 50), "ms"),
        "sim_cycles_per_host_s": (
            window.cycles / (window.ref_elapsed_ns / 1e9), "cycles/s"),
        "sim_kcycles_p50": (percentile(kcycles, 50), "kcycles"),
        "sim_kcycles_p99": (percentile(kcycles, 99), "kcycles"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    notes = [
        f"set-ups: {len(setups)}, raw median "
        f"{statistics.median(raw for raw, _ in setups)} s",
        f"host window: {done} requests in {window.elapsed_ns / 1e9:.3f} s "
        f"raw, {window.ref_elapsed_ns / 1e9:.3f} s at reference speed",
        f"raw host_ms_p50 = {percentile(raw_ms, 50)} ms",
        # Printed only: host scheduling stalls make p99 too unsteady for
        # a regression bound on a shared host (see README.md).
        f"host_ms_p99 = {percentile(ref_ms, 99)} ms (raw "
        f"{percentile(raw_ms, 99)} ms)",
        f"host_ms_p50/p99 samples: {done}",
        f"simulated window: first {len(kcycles)} requests, digest "
        f"{_digest(window.sim_cycles[:sim_requests])}"]
    return window.attempted, window.failed, metrics, notes, []


def _digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


def traced(cls, seed: int, smoke: bool):
    """The traced run: the same requests untraced, then traced."""
    from layers import (Tracer, SETUP_LAYERS, counter_delta, cross_check,
                        layer_metrics, program_counters)
    requests = SMOKE_REQUESTS if smoke else cls.sim_requests
    warm = SMOKE_REQUESTS if smoke else cls.warmup_requests

    def measure(wl, tracer=None):
        warm_up(wl, warm)
        gc.collect()
        before = program_counters(wl.platform)
        served = wl.served()
        if tracer is None:
            window = run_requests(wl, min_requests=requests)
        else:
            with tracer.installed():
                window = run_requests(wl, min_requests=requests)
        delta = counter_delta(before, program_counters(wl.platform))
        if served is not None:
            served = wl.served() - served
        return window, delta, served

    plain, plain_delta, _ = measure(cls(seed, smoke=smoke))
    setup_tracer = Tracer()
    with setup_tracer.installed(SETUP_LAYERS):
        wl = cls(seed, smoke=smoke)
    tracer = Tracer()
    window, delta, served = measure(wl, tracer)

    problems = cross_check(tracer, delta, requests, served)
    if window.sim_cycles != plain.sim_cycles:
        problems.append("traced per-request simulated cycles differ from "
                        "the untraced run")
    if delta != plain_delta:
        changed = sorted(k for k in set(delta) | set(plain_delta)
                         if delta.get(k) != plain_delta.get(k))
        problems.append(f"traced program counters differ: {changed[:8]}")
    # Spans are timed on the cheaper wall clock, so shares use wall time.
    metrics = layer_metrics(tracer, delta, window.wall_ns, setup_tracer)
    metrics["trace.overhead_ratio"] = (
        window.ref_elapsed_ns / plain.ref_elapsed_ns, "ratio")
    metrics["trace.window_ms"] = (window.wall_ns / 1e6, "ms")
    metrics["trace.requests"] = (len(window.host_ns), "count")
    notes = [f"untraced {plain.elapsed_ns / 1e6:.1f} ms, traced "
             f"{window.elapsed_ns / 1e6:.1f} ms for {requests} requests",
             f"simulated window digest {_digest(window.sim_cycles)}",
             "counter digest " + _digest(sorted(delta.items()))]
    return (plain.attempted + window.attempted, plain.failed + window.failed,
            metrics, notes, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    prov = provenance(args.seed)
    print(f"perfbench {args.workload} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in prov.items()))
    if args.trace:
        result = traced(cls, args.seed, args.smoke)
    else:
        result = end_to_end(cls, args.seed, args.seconds, args.smoke)
    attempted, failed, metrics, notes, problems = result

    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"error_rate = {failed / attempted} failed/attempted "
          f"({failed}/{attempted})")
    for problem in problems:
        print(f"check failed: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
