"""Shared benchmark helpers.

Every ``bench_<name>.py`` module regenerates one paper table or figure:
``run_experiment()`` runs the full simulation and ``check(figures)``
asserts the paper's *shape* (orderings, ratio bands, cliffs) over the
figures as ``BENCH_<name>.json`` records them — per DESIGN.md we
validate shapes, not absolute numbers, except for the microbenchmarks
whose cost itemizations are calibrated to land exactly.

``python -m repro.bench run NAME`` runs both and writes the artifact;
``python -m repro.bench check`` re-runs the gate set against the
committed ``benchmarks/baselines/BENCH_*.json`` and checks its claims;
``python -m repro.bench report`` prints the figures.
"""

from __future__ import annotations

import statistics

from repro.hw.machine import MachineConfig
from repro.monitor.structs import EnclaveConfig, EnclaveMode
from repro.platform import TeePlatform
from repro.sdk.image import EnclaveImage
from repro.telemetry.sink import current

# A small machine keeps pool setup fast; the reserved region still
# dwarfs every enclave used here.
BENCH_MACHINE = MachineConfig(
    phys_size=2 * 1024 * 1024 * 1024,
    reserved_base=1024 * 1024 * 1024,
    reserved_size=768 * 1024 * 1024,
)

EMPTY_EDL = """
enclave {
    trusted {
        public uint64 nop();
        public uint64 nop_in([in, size=n] bytes data, uint64 n);
        public uint64 nop_out([out, size=n] bytes data, uint64 n);
        public uint64 nop_inout([in, out, size=n] bytes data, uint64 n);
        public uint64 do_ocall();
        public uint64 do_ocall_in(uint64 n);
        public uint64 do_ocall_out(uint64 n);
        public uint64 do_ocall_inout(uint64 n);
    };
    untrusted {
        uint64 ocall_nop();
        uint64 ocall_in([in, size=n] bytes data, uint64 n);
        uint64 ocall_out([out, size=n] bytes data, uint64 n);
        uint64 ocall_inout([in, out, size=n] bytes data, uint64 n);
    };
};
"""


def _t_nop(ctx):
    return 0


def _t_nop_in(ctx, data, n):
    return 0


def _t_nop_out(ctx, data, n):
    return 0


def _t_nop_inout(ctx, data, n):
    return 0


def _t_do_ocall(ctx):
    ctx.ocall("ocall_nop")
    return 0


def _t_do_ocall_in(ctx, n):
    ctx.ocall("ocall_in", data=b"\x00" * n, n=n)
    return 0


def _t_do_ocall_out(ctx, n):
    ctx.ocall("ocall_out", n=n)
    return 0


def _t_do_ocall_inout(ctx, n):
    ctx.ocall("ocall_inout", data=b"\x00" * n, n=n)
    return 0


def empty_image(mode: EnclaveMode,
                msbuf_size: int = 256 * 1024) -> EnclaveImage:
    return EnclaveImage.build(
        "bench-empty", EMPTY_EDL,
        {"nop": _t_nop, "nop_in": _t_nop_in, "nop_out": _t_nop_out,
         "nop_inout": _t_nop_inout, "do_ocall": _t_do_ocall,
         "do_ocall_in": _t_do_ocall_in, "do_ocall_out": _t_do_ocall_out,
         "do_ocall_inout": _t_do_ocall_inout},
        EnclaveConfig(mode=mode, heap_size=1024 * 1024,
                      marshalling_buffer_size=msbuf_size))


def register_empty_ocalls(handle) -> None:
    handle.register_ocall("ocall_nop", lambda: 0)
    handle.register_ocall("ocall_in", lambda data, n: 0)
    handle.register_ocall("ocall_out",
                          lambda data, n: (0, {"data": b"\x00" * n}))
    handle.register_ocall("ocall_inout",
                          lambda data, n: (0, {"data": bytes(data)}))


def load_platform_and_handle(mode: EnclaveMode, **image_kwargs):
    if mode is EnclaveMode.SGX:
        platform = TeePlatform.intel_sgx(BENCH_MACHINE)
    else:
        platform = TeePlatform.hyperenclave(BENCH_MACHINE)
    # Under an active sink (python -m repro.bench), label each machine by
    # its mode: the committed fingerprints and latency tables use these.
    sink = current()
    if sink is not None:
        sink.register(mode.value, platform.machine.telemetry)
    handle = platform.load_enclave(empty_image(mode, **image_kwargs))
    register_empty_ocalls(handle)
    return platform, handle


def median_cycles(machine, op, iterations: int = 101) -> float:
    """The paper measures N runs and takes the median."""
    op()                     # warm
    samples = []
    for _ in range(iterations):
        with machine.cycles.measure() as span:
            op()
        samples.append(span.elapsed)
    return statistics.median(samples)

