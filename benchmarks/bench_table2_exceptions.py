"""Table 2: cycles to handle #UD and #PF exceptions inside enclaves.

Paper targets (CPU cycles):

    =====  =========  ==========  =========
    .      Intel SGX  GU-Enclave  P-Enclave
    =====  =========  ==========  =========
    #UD    28,561     17,490      258
    #PF    --         2,660       1,132
    =====  =========  ==========  =========

#UD: the test code executes an undefined instruction; for P-Enclaves the
exception is handled entirely in-enclave (own IDT), for GU/SGX it costs a
full two-phase AEX -> signal -> internal ECALL -> ERESUME round trip.

#PF: the GC scenario — revoke write permission on a buffer, touch it,
restore the permission in the fault handler.  (The paper couldn't run it
on SGX1: no permission changes after EINIT; we reproduce the "-".)
"""

from __future__ import annotations

from repro.monitor.structs import (EnclaveConfig, EnclaveMode, PagePerm)
from repro.platform import TeePlatform
from repro.sdk.image import EnclaveImage

from .conftest import BENCH_MACHINE

PAGE = 4096
UD_ITERATIONS = 101
PF_ITERATIONS = 32

EDL = """
enclave {
    trusted {
        public uint64 bench_ud(uint64 iterations);
        public uint64 bench_gc_pf(uint64 npages);
    };
    untrusted { };
};
"""


def t_bench_ud(ctx, iterations):
    """Trigger #UD repeatedly; the handler just advances past it."""
    import statistics
    machine_cycles = ctx._machine.cycles   # bench instrumentation
    ctx.register_exception_handler(lambda c, v: None)
    samples = []
    for _ in range(int(iterations)):
        with machine_cycles.measure() as span:
            ctx.trigger_ud()
        samples.append(span.elapsed)
    t_bench_ud.median = statistics.median(samples)
    return 0


def t_bench_gc_pf(ctx, npages):
    """The GC scenario, measuring the pure fault-handling cycles."""
    import statistics
    machine_cycles = ctx._machine.cycles
    n = int(npages)
    va = ctx.malloc(n * PAGE)
    ctx.write(va, b"\x00" * (n * PAGE))
    ctx.register_pf_handler(
        lambda c, fva: c.mprotect(fva & ~(PAGE - 1), 1, PagePerm.RW))
    ctx.mprotect(va, n, PagePerm.R)
    samples = []
    for i in range(n):
        with machine_cycles.measure() as span:
            ctx.write(va + i * PAGE, b"!")
        samples.append(span.elapsed
                       - span.categories.get("enclave-memory", 0))
    t_bench_gc_pf.median = statistics.median(samples)
    return 0


def _image(mode: EnclaveMode) -> EnclaveImage:
    return EnclaveImage.build(
        "bench-exceptions", EDL,
        {"bench_ud": t_bench_ud, "bench_gc_pf": t_bench_gc_pf},
        EnclaveConfig(mode=mode, heap_size=4 * 1024 * 1024))


def measure_mode(mode: EnclaveMode) -> dict[str, float | None]:
    if mode is EnclaveMode.SGX:
        platform = TeePlatform.intel_sgx(BENCH_MACHINE)
    else:
        platform = TeePlatform.hyperenclave(BENCH_MACHINE)
    handle = platform.load_enclave(_image(mode))
    handle.proxies.bench_ud(iterations=UD_ITERATIONS)
    ud = t_bench_ud.median
    if mode is EnclaveMode.SGX:
        # SGX1: no page-permission changes after EINIT (paper Sec 7.2).
        pf = None
    else:
        handle.proxies.bench_gc_pf(npages=PF_ITERATIONS)
        pf = t_bench_gc_pf.median
    handle.destroy()
    return {"ud": ud, "pf": pf}


def run_experiment():
    return {label: measure_mode(mode)
            for label, mode in (("Intel SGX", EnclaveMode.SGX),
                                ("GU-Enclave", EnclaveMode.GU),
                                ("P-Enclave", EnclaveMode.P))}


def check(figures) -> None:
    """Table 2's claims over the artifact's figures."""
    # Calibrated exact matches.
    assert figures["Intel SGX"]["ud"] == 28561
    assert figures["GU-Enclave"]["ud"] == 17490
    assert figures["P-Enclave"]["ud"] == 258
    assert figures["GU-Enclave"]["pf"] == 2660
    assert figures["P-Enclave"]["pf"] == 1132

    # Paper claims: P ~68x faster than GU, ~110x faster than SGX on #UD;
    # ~2.3x faster than GU on the GC #PF.
    assert 60 < figures["GU-Enclave"]["ud"] / figures["P-Enclave"]["ud"] < 75
    assert 100 < figures["Intel SGX"]["ud"] / figures["P-Enclave"]["ud"] < 120
    assert 2.2 < figures["GU-Enclave"]["pf"] / figures["P-Enclave"]["pf"] < 2.5
