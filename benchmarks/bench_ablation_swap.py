"""Ablation: monitor-managed enclave page swapping under memory pressure.

Sec 3.2 mentions page swapping as one source of enclave faults; our
monitor implements the EWB/ELDU analog (encrypted, integrity-protected,
versioned blobs in untrusted memory).  This ablation measures the raw
swap round trip and then runs a working set larger than a deliberately
tiny EPC pool, comparing against the same workload with ample memory —
quantifying what the paper's 24 GB reservation buys.
"""

from __future__ import annotations

import random

from repro.hw.machine import MachineConfig
from repro.hw.phys import PAGE_SIZE
from repro.monitor.enclave import ENCLAVE_BASE_VA
from repro.monitor.structs import EnclaveConfig, EnclaveMode
from repro.platform import TeePlatform
from repro.sdk.image import EnclaveImage

TINY = MachineConfig(
    phys_size=256 * 1024 * 1024,
    reserved_base=128 * 1024 * 1024,
    reserved_size=16 * 1024 * 1024,        # ~14 MB EPC after monitor
)
AMPLE = MachineConfig(
    phys_size=2 * 1024 * 1024 * 1024,
    reserved_base=1024 * 1024 * 1024,
    reserved_size=512 * 1024 * 1024,
)

EDL = "enclave { trusted { public uint64 nop(); }; untrusted { }; };"
WORKING_SET_PAGES = 8192                   # 32 MB, beyond the tiny pool
TOUCHES = 9_000


def _build(platform):
    image = EnclaveImage.build(
        "swap-bench", EDL, {"nop": lambda ctx: 0},
        EnclaveConfig(mode=EnclaveMode.GU, heap_size=64 * 1024 * 1024,
                      tcs_count=1))
    handle = platform.load_enclave(image)
    monitor = platform.monitor
    eid = handle.enclave_id
    base = ENCLAVE_BASE_VA + 128 * PAGE_SIZE
    monitor.reserve_region(eid, base, WORKING_SET_PAGES * PAGE_SIZE)
    return handle, monitor, eid, base


def measure_roundtrip() -> tuple[float, float]:
    platform = TeePlatform.hyperenclave(AMPLE)
    handle, monitor, eid, base = _build(platform)
    monitor.handle_enclave_page_fault(eid, base, write=True)
    with platform.cycles.measure() as span:
        monitor.swap_out(eid, base)
    out_cycles = span.elapsed
    with platform.cycles.measure() as span:
        monitor.handle_enclave_page_fault(eid, base, write=True)
    in_cycles = span.elapsed
    handle.destroy()
    return out_cycles, in_cycles


def measure_workload(config) -> float:
    platform = TeePlatform.hyperenclave(config)
    handle, monitor, eid, base = _build(platform)
    rng = random.Random(17)
    enclave = handle.enclave
    with platform.cycles.measure() as span:
        for _ in range(TOUCHES):
            page_va = base + rng.randrange(WORKING_SET_PAGES) * PAGE_SIZE
            if enclave.page_at(page_va) is None:
                # Not resident: the MMU faults, the monitor commits or
                # swaps the page back in.
                monitor.handle_enclave_page_fault(eid, page_va, write=True)
            else:
                platform.machine.cycles.charge(50, "resident-touch")
    handle.destroy()
    return span.elapsed / TOUCHES


def run_experiment():
    out_cycles, in_cycles = measure_roundtrip()
    pressured = measure_workload(TINY)
    ample = measure_workload(AMPLE)
    return {"swap_out": out_cycles, "swap_in": in_cycles,
            "per_touch_pressured": pressured, "per_touch_ample": ample}


def check(figures) -> None:
    """The swap ablation's claims over the artifact's figures."""
    r = figures
    # Swap-in must pay decrypt+verify on top of a demand-paging commit.
    assert r["swap_in"] > r["swap_out"] * 0.5
    assert r["swap_out"] > 10_000
    # Memory pressure costs an order of magnitude per fault — the
    # quantitative case for HyperEnclave's large reserved region.
    assert r["per_touch_pressured"] > 5 * r["per_touch_ample"]
