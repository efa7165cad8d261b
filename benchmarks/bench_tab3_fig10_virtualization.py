"""Table 3 + Figure 10: virtualization overhead on the normal VM.

The primary OS runs demoted inside the normal VM; the paper measures
LMBench micro-ops, SPEC CPU 2017 INTSpeed, and a kernel build, finding
<1% overhead in most benchmarks ("HyperEnclave avoids massive VM-exits by
pass-through most devices ... and installs huge pages in NPT").

We run the LMBench suite and the SPEC-like kernels natively and in the
normal VM.  VM costs come from amortized huge-page NPT fills and timer
ticks that now take a VM exit.
"""

from __future__ import annotations

from repro.apps.lmbench import ALL_OPS, run_suite
from repro.apps.speccpu import KERNELS as SPEC_KERNELS
from repro.hw import costs
from repro.platform import TeePlatform

from .conftest import BENCH_MACHINE

TIMER_INTERVAL = 400_000.0       # cycles between timer ticks
SPEC_REPS = 4


def _lmbench(platform) -> dict[str, float]:
    return {name: r.cycles
            for name, r in run_suite(platform.machine,
                                     platform.kernel).items()}


def _spec(platform, *, in_vm: bool) -> dict[str, float]:
    ctx = platform.native_context() if platform.kind == "native" else None
    if ctx is None:
        # The normal VM: same context type, but timer ticks cost a VM exit.
        native = TeePlatform.native(BENCH_MACHINE)
        ctx = native.native_context()
        machine = native.machine
    else:
        machine = platform.machine
    results = {}
    for name, kernel in SPEC_KERNELS.items():
        kernel(ctx, 1)       # warm
        with machine.cycles.measure() as span:
            for rep in range(SPEC_REPS):
                kernel(ctx, 2 + rep)
        cycles = span.elapsed
        ticks = cycles / TIMER_INTERVAL
        if in_vm:
            # Each timer tick takes a VM exit + entry on top of the
            # native interrupt cost.
            cycles += ticks * costs.HYPERCALL_ROUNDTRIP
        results[name] = cycles
    return results


def _kernel_build(platform) -> float:
    from repro.apps.kbuild import build
    return build(platform.machine, platform.kernel, n_units=25)


def run_experiment():
    native = TeePlatform.native(BENCH_MACHINE)
    vm = TeePlatform.hyperenclave(BENCH_MACHINE)
    return {
        "lmbench_native": _lmbench(native),
        "lmbench_vm": _lmbench(vm),
        "spec_native": _spec(native, in_vm=False),
        "spec_vm": _spec(vm, in_vm=True),
        "kbuild_native": _kernel_build(native),
        "kbuild_vm": _kernel_build(vm),
    }


def check(figures) -> None:
    """Table 3 and Figure 10's claims over the artifact's figures."""
    r = figures
    lm_overheads = {name: r["lmbench_vm"][name] / r["lmbench_native"][name]
                    - 1 for name in ALL_OPS}
    spec_overheads = {name: r["spec_vm"][name] / r["spec_native"][name] - 1
                      for name in sorted(SPEC_KERNELS)}
    kbuild_overhead = r["kbuild_vm"] / r["kbuild_native"] - 1

    # Paper: virtualization overhead < 1% in most benchmarks; allow a
    # couple of memory-management-heavy micro-ops to reach a few percent.
    for name, overhead in spec_overheads.items():
        assert -0.01 <= overhead < 0.01, (name, overhead)
    assert -0.01 <= kbuild_overhead < 0.02, kbuild_overhead
    small = sum(1 for o in lm_overheads.values() if o < 0.01)
    assert small >= len(lm_overheads) - 2, lm_overheads
    for name, overhead in lm_overheads.items():
        assert -0.01 <= overhead < 0.05, (name, overhead)
