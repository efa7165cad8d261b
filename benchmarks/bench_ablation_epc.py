"""Ablation: enclave-memory capacity and the paging cliff.

SGX1 fixes the EPC at ~93 MB; HyperEnclave's reserved region is a boot
parameter (the paper configures 24 GB).  This ablation sweeps the
protected-memory capacity under a random-access working set and shows
the paging cliff tracking the capacity — the quantitative version of the
paper's argument for configurable reserved memory (Sec 7.4 / Fig 8b).
"""

from __future__ import annotations

from repro.apps.membench import measure_latency

WORKING_SET = 256 * 1024 * 1024
CAPACITIES_MB = [32, 64, 93, 128, 256, 512]


def run_experiment():
    latencies = []
    for capacity_mb in CAPACITIES_MB:
        point = measure_latency("intel-mee", "random", WORKING_SET,
                                epc_bytes=capacity_mb * 1024 * 1024)
        latencies.append(point.cycles_per_access)
    unconstrained = measure_latency("amd-sme", "random",
                                    WORKING_SET).cycles_per_access
    return latencies, unconstrained


def check(figures) -> None:
    """The EPC-capacity claims over the artifact's figures."""
    latencies = figures["latencies"]
    unconstrained = figures["hyperenclave_flat"]
    # Latency falls monotonically as capacity covers more of the set...
    assert all(a >= b * 0.98 for a, b in zip(latencies, latencies[1:]))
    # ...collapses once capacity >= working set (no faults at 256/512MB)...
    assert latencies[0] > 20 * latencies[-1]
    # ...and the capacity-sufficient configs match the no-paging design.
    assert latencies[-1] < unconstrained * 3
