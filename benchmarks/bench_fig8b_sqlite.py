"""Figure 8b: in-memory SQLite (litedb) under YCSB-A vs record count.

Paper shape: on SGX throughput is ~75% of baseline while the database
fits in the EPC, and drops to ~50% once it exceeds ~90 MB (EPC paging);
on HyperEnclave both GU- and HU-Enclave stay within ~5% of baseline (SME
has no integrity metadata and the reserved enclave memory is 24 GB).

The client is embedded in the enclave (no edge calls in the hot loop),
exactly like the paper's setup.
"""

from __future__ import annotations

from repro.apps.litedb import LiteDb
from repro.apps.ycsb import load_phase, workload_a
from repro.monitor.structs import EnclaveConfig, EnclaveMode
from repro.platform import TeePlatform
from repro.sdk.image import EnclaveImage

from .conftest import BENCH_MACHINE

VALUE_SIZE = 1024
RECORD_COUNTS = [10_000, 40_000, 80_000, 120_000, 160_000]
OPS = 6_000
# litedb is only the storage engine; real SQLite spends most of each YCSB
# operation in the SQL layer (parser, planner, VDBE interpretation).
# Charge that layer explicitly so per-op costs are SQLite-shaped.
SQL_LAYER_CYCLES = 16_000

DB_EDL = """
enclave {
    trusted { public uint64 ycsb_run(uint64 n_records, uint64 n_ops); };
    untrusted { };
};
"""


def _run_ycsb(ctx, n_records: int, n_ops: int) -> int:
    db = LiteDb(ctx, value_size=VALUE_SIZE)
    for op in load_phase(n_records, value_size=VALUE_SIZE):
        db.put(op.key, op.value)
    done = 0
    for op in workload_a(n_records, n_ops, value_size=VALUE_SIZE):
        ctx.compute(SQL_LAYER_CYCLES)
        if op.kind == "read":
            db.get(op.key)
        else:
            db.update(op.key, op.value)
        done += 1
    return done


def t_ycsb_run(ctx, n_records, n_ops):
    return _run_ycsb(ctx, int(n_records), int(n_ops))


def _image(mode):
    return EnclaveImage.build(
        "litedb", DB_EDL, {"ycsb_run": t_ycsb_run},
        EnclaveConfig(mode=mode, heap_size=512 * 1024 * 1024,
                      stack_size=64 * 1024, tcs_count=1))


def _ops_cycles_native(n_records: int) -> float:
    platform = TeePlatform.native(BENCH_MACHINE)
    ctx = platform.native_context()
    db = LiteDb(ctx, value_size=VALUE_SIZE)
    for op in load_phase(n_records, value_size=VALUE_SIZE):
        db.put(op.key, op.value)
    with platform.machine.cycles.measure() as span:
        for op in workload_a(n_records, OPS, value_size=VALUE_SIZE):
            ctx.compute(SQL_LAYER_CYCLES)
            if op.kind == "read":
                db.get(op.key)
            else:
                db.update(op.key, op.value)
    return span.elapsed


def _ops_cycles_enclave(mode: EnclaveMode, n_records: int) -> float:
    if mode is EnclaveMode.SGX:
        platform = TeePlatform.intel_sgx(BENCH_MACHINE)
    else:
        platform = TeePlatform.hyperenclave(BENCH_MACHINE)
    handle = platform.load_enclave(_image(mode))
    ctx = handle.ctx

    # Run load + measure inside one long ECALL, like the paper's embedded
    # client.  We split it so only the operation phase is measured.
    measured = {}

    def t_split(c, n_records, n_ops):
        db = LiteDb(c, value_size=VALUE_SIZE)
        for op in load_phase(int(n_records), value_size=VALUE_SIZE):
            db.put(op.key, op.value)
        with c._machine.cycles.measure() as span:
            for op in workload_a(int(n_records), int(n_ops),
                                 value_size=VALUE_SIZE):
                c.compute(SQL_LAYER_CYCLES)
                if op.kind == "read":
                    db.get(op.key)
                else:
                    db.update(op.key, op.value)
        measured["cycles"] = span.elapsed
        return 0

    handle.image.trusted_funcs["ycsb_run"] = t_split
    handle.proxies.ycsb_run(n_records=n_records, n_ops=OPS)
    handle.destroy()
    return measured["cycles"]


def run_experiment():
    throughput = {"GU-Enclave": [], "HU-Enclave": [], "SGX": []}
    for n_records in RECORD_COUNTS:
        native = _ops_cycles_native(n_records)
        throughput["GU-Enclave"].append(
            native / _ops_cycles_enclave(EnclaveMode.GU, n_records))
        throughput["HU-Enclave"].append(
            native / _ops_cycles_enclave(EnclaveMode.HU, n_records))
        throughput["SGX"].append(
            native / _ops_cycles_enclave(EnclaveMode.SGX, n_records))
    return throughput


def check(figures) -> None:
    """Figure 8b's claims over the artifact's figures."""
    results = figures
    # HyperEnclave: < ~5% overhead at every size, both modes.
    for mode in ("GU-Enclave", "HU-Enclave"):
        for value in results[mode]:
            assert value > 0.90, (mode, value)

    # SGX: clearly below HyperEnclave while in-EPC...
    assert results["SGX"][0] < min(results["GU-Enclave"][0],
                                   results["HU-Enclave"][0])
    # The 40k/80k points are the in-EPC plateau (the 10k database is
    # largely LLC-resident, so its gap is smaller).
    plateau = (results["SGX"][1] + results["SGX"][2]) / 2
    out_epc = results["SGX"][-1]
    assert results["SGX"][0] < 0.96
    assert 0.65 < plateau < 0.92, plateau
    # ...and a visible cliff once the DB exceeds the 93 MB EPC.
    assert out_epc < plateau - 0.15, (plateau, out_epc)
    assert 0.20 < out_epc < 0.65, out_epc
