"""Ablation: switchless OCALLs (the optimization the paper cites [66]).

Switchless calls replace the world switch with a shared-ring handoff to a
busy-polling untrusted worker.  This ablation measures (a) the raw OCALL
latency with and without switchless mode per enclave operation mode, and
(b) the burned-worker cost that pays for it — quantifying when the trade
is worth it (OCALL-heavy servers) and when it isn't (rare OCALLs waste a
core).
"""

from __future__ import annotations

import statistics

from repro.hw import costs
from repro.monitor.structs import EnclaveMode

from .conftest import load_platform_and_handle

MODES = [("HU-Enclave", EnclaveMode.HU), ("GU-Enclave", EnclaveMode.GU),
         ("P-Enclave", EnclaveMode.P), ("Intel SGX", EnclaveMode.SGX)]
ITERATIONS = 101


def measure_mode(mode: EnclaveMode) -> dict[str, float]:
    platform, handle = load_platform_and_handle(mode)
    machine = platform.machine
    samples: list[int] = []

    def entry(ctx):
        with machine.cycles.measure() as span:
            ctx.ocall("ocall_nop")
        samples.append(span.elapsed)
        return 0

    handle.image.trusted_funcs["nop"] = lambda ctx: entry(ctx)

    def median_ocall() -> float:
        """The median OCALL, timed inside the ECALL that makes it."""
        handle.proxies.nop()                  # warm
        samples.clear()
        for _ in range(ITERATIONS):
            handle.proxies.nop()
        return statistics.median(samples)

    regular = median_ocall()
    handle.enable_switchless()
    switchless = median_ocall()
    worker_cycles = handle.switchless_worker_cycles
    handle.destroy()
    return {"regular": regular, "switchless": switchless,
            "worker": worker_cycles}


def run_experiment():
    return {label: measure_mode(mode) for label, mode in MODES}


def check(figures) -> None:
    """The switchless ablation's claims over the artifact's figures."""
    expected = (costs.SWITCHLESS_ENQUEUE_CYCLES
                + costs.SWITCHLESS_POLL_INTERVAL_CYCLES / 2
                + costs.SWITCHLESS_COMPLETE_CYCLES)
    for label, _ in MODES:
        r = figures[label]
        # Regular OCALLs land on Table 1; switchless is mode-independent.
        assert r["switchless"] == expected, label
        assert r["regular"] / r["switchless"] > 5, label
        # The price: the worker core spins through every switchless
        # ECALL, so it burns more than the OCALLs it saves cycles on.
        assert r["worker"] > 0, label
        assert r["worker"] > ITERATIONS * r["switchless"], label
    # SGX gains the most: its world switch is the most expensive.
    gains = {label: figures[label]["regular"] / figures[label]["switchless"]
             for label, _ in MODES}
    assert gains["Intel SGX"] == max(gains.values())
