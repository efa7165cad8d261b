"""Ablation: SGX sensitivity across the full YCSB workload suite.

Figure 8b uses only workload A (50/50 read/update).  This ablation runs
litedb under all six core YCSB mixes and reports each platform's relative
throughput.  The spread that emerges: scan-heavy E is SGX's worst case
(large per-op footprints keep missing through the MEE), the
recency-skewed D its best (hot working set stays decrypted in the LLC),
while HyperEnclave stays uniformly within a few percent of baseline.
"""

from __future__ import annotations

from repro.apps.litedb import LiteDb
from repro.apps.ycsb import SCAN_LENGTH, load_phase, workload
from repro.monitor.structs import EnclaveConfig, EnclaveMode
from repro.platform import TeePlatform
from repro.sdk.image import EnclaveImage

from .conftest import BENCH_MACHINE

WORKLOADS = ["A", "B", "C", "D", "E", "F"]
N_RECORDS = 40_000
OPS = 2_500
VALUE_SIZE = 1024
SQL_LAYER_CYCLES = 16_000

EDL = "enclave { trusted { public uint64 run(uint64 w); }; untrusted { }; };"


def _drive(ctx, db: LiteDb, letter: str) -> None:
    for op in workload(letter, N_RECORDS, OPS, value_size=VALUE_SIZE):
        ctx.compute(SQL_LAYER_CYCLES)
        if op.kind == "read":
            db.get(op.key)
        elif op.kind == "update":
            db.update(op.key, op.value)
        elif op.kind == "insert":
            db.put(op.key, op.value)
        elif op.kind == "scan":
            db.scan(op.key, SCAN_LENGTH)


def _measure(platform, ctx, letter: str) -> float:
    db = LiteDb(ctx, value_size=VALUE_SIZE)
    for op in load_phase(N_RECORDS, value_size=VALUE_SIZE):
        db.put(op.key, op.value)
    with platform.machine.cycles.measure() as span:
        _drive(ctx, db, letter)
    return span.elapsed


def _measure_enclave(mode: EnclaveMode, letter: str) -> float:
    platform = (TeePlatform.intel_sgx(BENCH_MACHINE)
                if mode is EnclaveMode.SGX
                else TeePlatform.hyperenclave(BENCH_MACHINE))
    image = EnclaveImage.build(
        "ycsb-mix", EDL, {"run": lambda ctx, w: 0},
        EnclaveConfig(mode=mode, heap_size=512 * 1024 * 1024,
                      tcs_count=1))
    handle = platform.load_enclave(image)
    measured = {}

    def t_run(ctx, w):
        measured["cycles"] = _measure(platform, ctx, letter)
        return 0

    handle.image.trusted_funcs["run"] = t_run
    handle.proxies.run(w=0)
    handle.destroy()
    return measured["cycles"]


def run_experiment():
    results = {"GU-Enclave": [], "SGX": []}
    for letter in WORKLOADS:
        native_platform = TeePlatform.native(BENCH_MACHINE)
        native = _measure(native_platform,
                          native_platform.native_context(), letter)
        results["GU-Enclave"].append(
            native / _measure_enclave(EnclaveMode.GU, letter))
        results["SGX"].append(
            native / _measure_enclave(EnclaveMode.SGX, letter))
    return results


def check(figures) -> None:
    """The YCSB-mix claims over the artifact's figures."""
    by_letter = dict(zip(WORKLOADS, figures["SGX"]))
    gu_by_letter = dict(zip(WORKLOADS, figures["GU-Enclave"]))
    # HyperEnclave stays close to baseline on every mix.
    for letter, value in gu_by_letter.items():
        assert value > 0.93, (letter, value)
    # SGX is always worse than HyperEnclave...
    for letter in WORKLOADS:
        assert by_letter[letter] < gu_by_letter[letter], letter
    # ...suffers most on the scan-heavy mix...
    assert by_letter["E"] == min(by_letter.values()), by_letter
    assert by_letter["E"] < by_letter["C"] - 0.10, by_letter
    # ...and least on the recency-skewed mix (hot set stays cached).
    assert by_letter["D"] == max(by_letter.values()), by_letter
