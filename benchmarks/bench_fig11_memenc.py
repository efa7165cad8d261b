"""Figure 11: memory-encryption overhead, sequential vs random access.

Latency per 8-byte access over buffers from 16 KB to 256 MB on the
HyperEnclave memory system (AMD SME) and the SGX memory system (Intel
MEE + 93 MB EPC), normalized to each configuration's 16 KB point.

Paper shape: negligible overhead inside the 8 MB LLC; beyond it the
normalized latency reaches ~2.4x (seq) / ~25x (random) on HyperEnclave
and ~3x / ~30x on SGX; past the 93 MB EPC, SGX additionally pays paging,
reaching ~45x (seq) and ~1000x (random), while HyperEnclave stays flat
(its reserved enclave memory is 24 GB).
"""

from __future__ import annotations

from repro.apps.membench import BUFFER_SIZES, latency_curve
from repro.hw import costs

LLC_INDEX = next(i for i, s in enumerate(BUFFER_SIZES)
                 if s > costs.LLC_SIZE)
EPC_INDEX = next(i for i, s in enumerate(BUFFER_SIZES)
                 if s > costs.SGX_EPC_SIZE)


def run_experiment():
    curves = {}
    for pattern in ("seq", "random"):
        curves[f"plain/{pattern}"] = latency_curve("none", pattern)
        curves[f"hyperenclave/{pattern}"] = latency_curve(
            "amd-sme", pattern)
        curves[f"sgx/{pattern}"] = latency_curve(
            "intel-mee", pattern, epc_bytes=costs.SGX_EPC_SIZE)
    return curves


def check(figures) -> None:
    """Figure 11's claims over the artifact's figures (the registry
    normalizes each curve to its 16 KB point)."""
    normalized = figures["normalized"]
    # Inside the LLC: flat for everyone.
    for name, values in normalized.items():
        for v in values[:LLC_INDEX]:
            assert v < 2.5, (name, v)

    he_seq = normalized["hyperenclave/seq"]
    he_rand = normalized["hyperenclave/random"]
    sgx_seq = normalized["sgx/seq"]
    sgx_rand = normalized["sgx/random"]

    # Beyond the LLC but inside the EPC: HyperEnclave ~2-3x seq /
    # ~20-40x random; SGX somewhat worse at both (MEE metadata).
    mid = EPC_INDEX - 1
    assert 1.5 < he_seq[mid] < 4.5, he_seq[mid]
    assert 15 < he_rand[mid] < 45, he_rand[mid]
    assert sgx_seq[mid] > he_seq[mid]
    assert sgx_rand[mid] > he_rand[mid]
    assert sgx_rand[mid] < 70

    # Beyond the EPC: SGX pays paging (paper: ~45x seq, ~1000x random);
    # HyperEnclave stays on its plateau.
    assert 20 < sgx_seq[-1] < 90, sgx_seq[-1]
    assert 300 < sgx_rand[-1] < 3000, sgx_rand[-1]
    assert he_seq[-1] < 5
    assert he_rand[-1] < 45
