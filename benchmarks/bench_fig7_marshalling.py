"""Figure 7: marshalling-buffer overhead for ECALLs and OCALLs.

The paper measures edge calls moving 64 B - 16 KB in the "in", "out" and
"in&out" directions, comparing a GU-Enclave using the marshalling buffer
against a GU variant without it (direct copies, the insecure design) —
the data is CLFLUSHed before each call.

Paper shape: ECALL overhead grows ~linearly with size, reaching ~8% (in),
~11% (out), ~21% (in&out) at 16 KB; OCALL overhead is negligible because
``sgx_ocalloc`` frames live in the marshalling buffer already.
"""

from __future__ import annotations

import statistics

from repro.monitor.structs import EnclaveMode
from repro.platform import TeePlatform

from .conftest import BENCH_MACHINE, empty_image, register_empty_ocalls

SIZES = [64, 256, 1024, 4096, 16384]
ITERATIONS = 51

_ECALLS = {"in": ("nop_in", True), "out": ("nop_out", False),
           "in&out": ("nop_inout", True)}
_OCALLS = {"in": "do_ocall_in", "out": "do_ocall_out",
           "in&out": "do_ocall_inout"}


def _measure(handle, call, direction, size, *, ocall: bool) -> float:
    machine = handle.machine
    payload = b"\xA5" * size

    def op():
        # The no-msbuf variant stages [in] data into fresh enclave heap;
        # reset the arena so the bench can't exhaust it.
        handle.ctx.heap_reset()
        # CLFLUSH the payload region so copies start cold (paper setup).
        machine.llc.flush_range(handle.msbuf_vma.start,
                                handle.msbuf_vma.size)
        if ocall:
            getattr(handle.proxies, call)(n=size)
        else:
            name, needs_data = _ECALLS[direction]
            kwargs = {"n": size}
            if needs_data:
                kwargs["data"] = payload
            getattr(handle.proxies, name)(**kwargs)

    op()
    samples = []
    for _ in range(ITERATIONS):
        with machine.cycles.measure() as span:
            op()
        samples.append(span.elapsed)
    return statistics.median(samples)


def run_experiment():
    results = {"ecall": {}, "ocall": {}}
    for use_ms in (True, False):
        platform = TeePlatform.hyperenclave(BENCH_MACHINE)
        handle = platform.load_enclave(empty_image(EnclaveMode.GU),
                                       use_marshalling=use_ms)
        register_empty_ocalls(handle)
        key = "ms" if use_ms else "noms"
        for direction in _ECALLS:
            results["ecall"].setdefault(direction, {})[key] = [
                _measure(handle, _ECALLS[direction][0], direction, size,
                         ocall=False) for size in SIZES]
        for direction, call in _OCALLS.items():
            results["ocall"].setdefault(direction, {})[key] = [
                _measure(handle, call, direction, size, ocall=True)
                for size in SIZES]
        handle.destroy()

    overheads = {}
    for kind in ("ecall", "ocall"):
        overheads[kind] = {}
        for direction, runs in results[kind].items():
            overheads[kind][direction] = [
                ms / noms - 1.0
                for ms, noms in zip(runs["ms"], runs["noms"])]
    return overheads


def check(figures) -> None:
    """Figure 7's claims over the artifact's figures."""
    ecall = figures["ecall"]
    # ECALL overhead grows with size...
    for direction in ("in", "out", "in&out"):
        assert ecall[direction][-1] > ecall[direction][0]
    # ...landing near the paper's 16 KB numbers (8% / 11% / 21%).
    assert 0.04 < ecall["in"][-1] < 0.14
    assert 0.04 < ecall["out"][-1] < 0.16
    assert 0.10 < ecall["in&out"][-1] < 0.28
    assert ecall["in&out"][-1] > ecall["in"][-1]

    # OCALL overhead is negligible at every size (the ocalloc design).
    for direction in ("in", "out", "in&out"):
        for value in figures["ocall"][direction]:
            assert abs(value) < 0.03, (direction, value)
