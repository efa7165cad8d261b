"""Ablation: the GC write-barrier cost vs core count (GU vs P).

On one CPU the Table 2 numbers hold (GU 2,660 / P 1,132 per fault).  On a
multi-core box the monitor must TLB-shootdown *every* core for each
permission change it makes on a GU-Enclave's behalf — it cannot know
where translations are cached — while a P-Enclave editing its own
level-1 table only invalidates its own vCPU.  The P-Enclave advantage
therefore grows with the machine (the paper's box has 128 logical cores).
"""

from __future__ import annotations

from repro.hw.machine import Machine, MachineConfig
from repro.hw.phys import PAGE_SIZE
from repro.monitor.boot import measured_late_launch
from repro.monitor.structs import EnclaveConfig, EnclaveMode, PagePerm
from repro.sdk.image import EnclaveImage

CPU_COUNTS = [1, 4, 16, 64, 128]
PAGES = 24

EDL = "enclave { trusted { public uint64 gc(uint64 npages); }; " \
      "untrusted { }; };"


def t_gc(ctx, npages):
    n = int(npages)
    heap = ctx.globals.get("heap")
    if heap is None:
        heap = ctx.malloc(n * PAGE_SIZE)
        ctx.write(heap, b"\x00" * (n * PAGE_SIZE))
        ctx.globals["heap"] = heap
    ctx.register_pf_handler(
        lambda c, va: c.mprotect(va & ~(PAGE_SIZE - 1), 1, PagePerm.RW))
    ctx.mprotect(heap, n, PagePerm.R)
    for i in range(n):
        ctx.write(heap + i * PAGE_SIZE, b"!")
    return n


def _platform(num_cpus):
    machine = Machine(MachineConfig(
        phys_size=1024 * 1024 * 1024,
        reserved_base=512 * 1024 * 1024,
        reserved_size=256 * 1024 * 1024,
        num_cpus=num_cpus,
    ))
    boot = measured_late_launch(machine)
    return machine, boot


def _measure(mode: EnclaveMode, num_cpus: int) -> float:
    machine, boot = _platform(num_cpus)
    from repro.osim.kernel import Kernel
    from repro.osim.kmod import HyperEnclaveDevice
    from repro.sdk.urts import UntrustedRuntime
    kernel = Kernel(machine, boot.monitor)
    device = HyperEnclaveDevice(kernel, boot.monitor)
    process = kernel.spawn()
    urts = UntrustedRuntime(machine, kernel, device, boot.monitor, process)
    image = EnclaveImage.build(
        "smp-gc", EDL, {"gc": t_gc},
        EnclaveConfig(mode=mode, heap_size=(PAGES + 8) * PAGE_SIZE))
    from repro.platform import DEFAULT_VENDOR_KEY
    from repro.sdk.edger8r import generate_proxies
    handle = urts.create_enclave(image, DEFAULT_VENDOR_KEY)
    handle.proxies = generate_proxies(handle)
    handle.proxies.gc(npages=PAGES)                # warm: commit the heap
    with machine.cycles.measure() as span:
        handle.proxies.gc(npages=PAGES)
    handle.destroy()
    return span.elapsed / PAGES


def run_experiment():
    return {
        "GU-Enclave": [_measure(EnclaveMode.GU, n) for n in CPU_COUNTS],
        "P-Enclave": [_measure(EnclaveMode.P, n) for n in CPU_COUNTS],
    }


def check(figures) -> None:
    """The SMP GC claims over the artifact's figures."""
    ratios = [g / p for g, p in zip(figures["GU-Enclave"],
                                    figures["P-Enclave"])]
    # P-Enclave per-page cost is CPU-count independent...
    p_costs = figures["P-Enclave"]
    assert max(p_costs) - min(p_costs) < 0.05 * p_costs[0]
    # ...GU grows with cores (two shootdowns per barrier round trip)...
    gu = figures["GU-Enclave"]
    assert gu[0] < gu[1] < gu[-1]
    # ...so the P advantage widens: ~1.5x per epoch-page at 1 CPU (the
    # pure fault is 2.35x, Table 2; the epoch adds shared revoke/write
    # costs), growing to tens of x at the paper's 128 logical cores.
    assert 1.2 < ratios[0] < 2.8
    assert ratios[-1] > 8, ratios
