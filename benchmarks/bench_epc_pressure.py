"""EPC interference: two tenants contending for a tiny EPC pool.

Two GU enclaves ("tenant-a", "tenant-b") each own a working set of
:data:`WORKING_SET_PAGES` pages; together the sets exceed the ~14 MB
EPC pool, so every full sweep by one tenant evicts the other's resident
pages through the monitor's reclaim path.  Each sweep is driven through
real ``sweep`` ECALLs (one per :data:`CHUNK_PAGES`-page chunk), so the
scenario exercises the whole edge-call stack: under a request tracer
(``python -m repro.bench run epc_pressure --requests``) every chunk is
a traced request whose causal tree shows the page-fault/swap storms it
hit and the (victim, aggressor) frames it stole.  ``python -m
repro.bench report`` prints the request latency, slowest-request and
cross-tenant interference tables from the artifact; the interference
rows add up to the ``cross_tenant_steals`` figure, the monitor's own
count.

The figures are deterministic fault/steal counts — no host time — so
the scenario doubles as an ordinary (non-gated) ablation benchmark.
"""

from __future__ import annotations

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

EDL = ("enclave { trusted { public uint64 sweep(uint64 chunk); }; "
       "untrusted { }; };")
WORKING_SET_PAGES = 2048                   # 8 MB each; 16 MB combined
CHUNK_PAGES = 256                          # pages per sweep ECALL
ROUNDS = 3
TENANTS = ("tenant-a", "tenant-b")
BASE_VA = ENCLAVE_BASE_VA + 128 * PAGE_SIZE


def _sweep_chunk(ctx, chunk):
    """Trusted: touch every page of one working-set chunk in order.

    Returns the number of pages that faulted (demand commit or swap-in
    through RustMonitor) — the reads themselves take the real fault
    path inside this ECALL, so a request tracer sees the storm.
    """
    faults = 0
    for i in range(CHUNK_PAGES):
        page_va = BASE_VA + (chunk * CHUNK_PAGES + i) * PAGE_SIZE
        if ctx.enclave.page_at(page_va) is None:
            faults += 1
        ctx.read(page_va, 8)
    return faults


def _build_tenant(platform, name):
    image = EnclaveImage.build(
        name, EDL, {"sweep": _sweep_chunk},
        EnclaveConfig(mode=EnclaveMode.GU, heap_size=16 * 1024 * 1024,
                      tcs_count=1))
    handle = platform.load_enclave(image)
    eid = handle.enclave_id
    platform.monitor.reserve_region(eid, BASE_VA,
                                    WORKING_SET_PAGES * PAGE_SIZE)
    tracer = platform.machine.telemetry.requests
    if tracer is not None:
        tracer.name_tenant(eid, name)
    return handle, eid


def run_experiment():
    platform = TeePlatform.hyperenclave(TINY)
    monitor = platform.monitor
    tenants = [_build_tenant(platform, name) for name in TENANTS]
    chunks = WORKING_SET_PAGES // CHUNK_PAGES

    faults = {name: 0 for name in TENANTS}
    for _ in range(ROUNDS):
        for name, (handle, _) in zip(TENANTS, tenants):
            for chunk in range(chunks):
                faults[name] += handle.ecall("sweep", chunk=chunk)

    swap_outs = {name: monitor._swap_states[eid]._version
                 for name, (_, eid) in zip(TENANTS, tenants)}
    cross_steals = sum(count for (victim, aggressor), count
                       in monitor.epc_steals.items()
                       if victim != aggressor)
    figures = {
        "faults_tenant_a": faults["tenant-a"],
        "faults_tenant_b": faults["tenant-b"],
        "swap_outs_tenant_a": swap_outs["tenant-a"],
        "swap_outs_tenant_b": swap_outs["tenant-b"],
        "cross_tenant_steals": cross_steals,
        "epc_free_frames_end": monitor.epc_pool.free_pages,
        "sweep_ecalls": ROUNDS * len(TENANTS) * chunks,
    }
    for handle, _ in tenants:
        handle.destroy()
    return figures


def check(figures) -> None:
    """The two-tenant pressure claims over the artifact's figures."""
    r = figures
    # Round 1 commits each set once; rounds 2+ re-fault pages the other
    # tenant evicted, so both tenants fault well beyond their set size.
    assert r["faults_tenant_a"] > WORKING_SET_PAGES
    assert r["faults_tenant_b"] > WORKING_SET_PAGES
    # The contention is mutual: each tenant's sweep steals frames from
    # the other, so cross-tenant steals dominate the reclaim traffic.
    assert r["cross_tenant_steals"] > 0
    assert r["swap_outs_tenant_a"] > 0 and r["swap_outs_tenant_b"] > 0
    # The combined working sets exhaust the pool: no frame is left free.
    assert r["epc_free_frames_end"] == 0
