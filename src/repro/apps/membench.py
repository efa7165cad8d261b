"""Memory-latency kernel (Figure 11 and Appendix A.3).

Measures per-access latency for sequential and random patterns over
buffers from 16 KB to 256 MB, with and without memory encryption, on the
HyperEnclave (AMD SME) and SGX (Intel MEE + EPC paging) memory systems.

To keep the simulation tractable the whole memory hierarchy is *scaled
down by a constant factor* (buffer, LLC, EPC, TLB, metadata caches all
divided by ``SCALE``): every capacity ratio — which is what determines
the shape of the latency curves — is preserved, while line/page
iteration counts shrink by the same factor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.hw import costs
from repro.hw.cache import Llc
from repro.hw.cycles import CycleCounter
from repro.hw.memenc import AmdSme, IntelMee, NoEncryption
from repro.hw.memmodel import EpcModel, MemorySubsystem
from repro.hw.tlb import Tlb

SCALE = 8
BUFFER_SIZES = [16 * 1024 * (4 ** i) for i in range(8)]   # 16 KB .. 256 MB
RANDOM_SAMPLES = 20_000


def _make_engine(name: str):
    if name == "none":
        return NoEncryption()
    if name == "amd-sme":
        return AmdSme()
    if name == "intel-mee":
        return IntelMee(cache_lines=costs.MEE_METADATA_CACHE_LINES // SCALE)
    raise ValueError(f"unknown engine {name!r}")


@dataclass(frozen=True)
class LatencyPoint:
    """Average per-8-byte-access latency for one configuration."""

    buffer_size: int
    pattern: str          # "seq" | "random"
    engine: str
    cycles_per_access: float


def measure_latency(engine_name: str, pattern: str, buffer_size: int, *,
                    epc_bytes: int | None = None,
                    seed: int = 99) -> LatencyPoint:
    """Latency of one (engine, pattern, size) point on the scaled hierarchy."""
    scaled = max(buffer_size // SCALE, 4096)
    cycles = CycleCounter()
    mem = MemorySubsystem(
        cycles, _make_engine(engine_name),
        llc=Llc(costs.LLC_SIZE // SCALE),
        tlb=Tlb(max(costs.TLB_ENTRIES // SCALE, 16)),
        epc=EpcModel(epc_bytes // SCALE) if epc_bytes else None)

    if pattern == "seq":
        # Two passes: warm, then measure the steady state.
        mem.touch_sequential(0, scaled)
        with cycles.measure() as span:
            mem.touch_sequential(0, scaled)
        accesses = scaled // 8
    elif pattern == "random":
        rng = random.Random(seed)
        offsets = [rng.randrange(scaled // 8) * 8
                   for _ in range(RANDOM_SAMPLES)]
        # Warm-up: one full sweep (fills what fits in the LLC) plus a
        # random prefix (LRU steady state for larger-than-LLC buffers).
        mem.touch_sequential(0, scaled)
        for offset in offsets[: RANDOM_SAMPLES // 4]:
            mem.touch(offset)
        with cycles.measure() as span:
            for offset in offsets:
                mem.touch(offset)
        accesses = RANDOM_SAMPLES
    else:
        raise ValueError(f"unknown pattern {pattern!r}")

    return LatencyPoint(buffer_size=buffer_size, pattern=pattern,
                        engine=engine_name,
                        cycles_per_access=span.elapsed / accesses)


def latency_curve(engine_name: str, pattern: str, *,
                  epc_bytes: int | None = None,
                  sizes: list[int] | None = None) -> list[LatencyPoint]:
    """The Figure 11 series for one configuration."""
    return [measure_latency(engine_name, pattern, size, epc_bytes=epc_bytes)
            for size in (sizes or BUFFER_SIZES)]


def normalized_overhead(points: list[LatencyPoint]) -> list[float]:
    """Each point's latency normalized to the smallest-buffer latency."""
    baseline = points[0].cycles_per_access
    return [p.cycles_per_access / baseline for p in points]
