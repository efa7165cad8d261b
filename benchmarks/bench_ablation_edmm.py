"""Ablation: dynamic enclave memory management (EDMM), Sec 3.2.

The paper's design argument: because RustMonitor owns the enclave page
table, dynamically adding, removing, or re-permissioning pages is a
single trusted-path operation, while SGX2 must round-trip through the
untrusted driver *and* have the enclave EACCEPT every change.

This ablation grows an enclave heap page by page (demand paging), changes
page permissions, and trims pages, on HyperEnclave (GU) vs the SGX2
baseline, reporting per-page costs.
"""

from __future__ import annotations

from repro.hw import costs
from repro.monitor.structs import EnclaveConfig, EnclaveMode, PagePerm
from repro.platform import TeePlatform
from repro.sdk.image import EnclaveImage

from .conftest import BENCH_MACHINE

PAGE = 4096
N_PAGES = 64

EDL = """
enclave {
    trusted { public uint64 grow(uint64 npages); };
    untrusted { };
};
"""


def t_grow(ctx, npages):
    """Touch ``npages`` fresh heap pages (each faults + commits)."""
    base = ctx.malloc(int(npages) * PAGE)
    for i in range(int(npages)):
        ctx.write(base + i * PAGE, b"x")
    ctx.globals["grown_base"] = base
    return base


def _image(mode):
    return EnclaveImage.build(
        "edmm", EDL, {"grow": t_grow},
        EnclaveConfig(mode=mode, heap_size=8 * 1024 * 1024))


def measure(mode: EnclaveMode) -> dict[str, float]:
    if mode is EnclaveMode.SGX:
        platform = TeePlatform.intel_sgx(BENCH_MACHINE)
    else:
        platform = TeePlatform.hyperenclave(BENCH_MACHINE)
    handle = platform.load_enclave(_image(mode))
    machine = platform.machine
    monitor = platform.monitor

    # 1. On-demand heap growth: isolate the commit path from the write.
    with machine.cycles.measure() as span:
        base = handle.proxies.grow(npages=N_PAGES)
    grow = (span.categories.get("demand-paging", 0)
            + span.categories.get("edmm-sgx2", 0)) / N_PAGES

    # 2. Permission change (e.g. W^X flips for JIT code pages).
    with machine.cycles.measure() as span:
        monitor.enclave_mprotect(handle.enclave_id, base, N_PAGES,
                                 PagePerm.R)
    protect = span.elapsed / N_PAGES

    # 3. Trim (release memory back to the pool).
    with machine.cycles.measure() as span:
        trimmed = monitor.enclave_trim(handle.enclave_id, base, N_PAGES)
    assert trimmed == N_PAGES
    trim = span.elapsed / N_PAGES

    handle.destroy()
    return {"grow": grow, "protect": protect, "trim": trim}


def run_experiment():
    return {"HyperEnclave (GU)": measure(EnclaveMode.GU),
            "SGX2 EDMM": measure(EnclaveMode.SGX)}


def check(figures) -> None:
    """The EDMM ablation's claims over the artifact's figures."""
    # The paper's claim: EDMM without driver round trips and EACCEPTs is
    # much cheaper on every operation.
    for op in ("grow", "protect", "trim"):
        he = figures["HyperEnclave (GU)"][op]
        sgx = figures["SGX2 EDMM"][op]
        assert sgx > 2 * he, (op, he, sgx)
    # Growth specifically: monitor demand paging is a single trap.
    assert figures["HyperEnclave (GU)"]["grow"] == sum(
        c for _, c in costs.DEMAND_PAGING_PF_STEPS)
