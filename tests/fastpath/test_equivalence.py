"""A/B equivalence: the legacy and fast paths are bit-identical.

The fast paths (translation memoization, batched cycle charging,
bulk memory-cost kernels) are pure optimizations: every observable
— cycle totals, per-category breakdowns, TLB/LLC/MEE counters, machine
state fingerprints, benchmark figures — must match the legacy reference
loops exactly, not approximately.
"""

from __future__ import annotations

import random

import pytest

from repro.hw import costs, fastpath
from repro.hw.cache import Llc
from repro.hw.cycles import CycleCounter
from repro.hw.memenc import AmdSme, IntelMee
from repro.hw.memmodel import EpcModel, MemorySubsystem
from repro.hw.tlb import Tlb
from tests.fastpath.conftest import ALL_MODES


def _mem_state(mem: MemorySubsystem) -> dict:
    """Every observable of one memory subsystem, for exact comparison."""
    return {
        "total": mem.cycles.total,
        "by_category": dict(mem.cycles.by_category),
        "tlb": mem.tlb.stats(),
        "tlb_digest": mem.tlb.state_digest(),
        "llc": mem.llc.stats(),
        "engine": mem.engine.stats(),
        "epc_faults": mem.epc.faults if mem.epc is not None else None,
    }


def _drive_workload(engine, *, epc_bytes: int | None = None,
                    seed: int = 7) -> dict:
    """A mixed sequential/random workload over one configuration."""
    cycles = CycleCounter()
    mem = MemorySubsystem(
        cycles, engine,
        llc=Llc(costs.LLC_SIZE // 64),
        tlb=Tlb(max(costs.TLB_ENTRIES // 8, 16)),
        epc=EpcModel(epc_bytes) if epc_bytes else None)
    span = 4 << 20                      # 4 MB: beyond the scaled LLC
    mem.touch_sequential(0, span)
    rng = random.Random(seed)
    for _ in range(4000):
        mem.touch(rng.randrange(span // 8) * 8)
    mem.touch_sequential(span // 2, span // 4)
    return _mem_state(mem)


def _sweep_modes(run):
    """Run ``run()`` under every mode; return {effective_mode: result}."""
    results = {}
    for requested in ALL_MODES:
        effective = fastpath.set_mode(requested)
        results.setdefault(effective, run())
    fastpath.set_mode(None)
    return results


class TestMemorySubsystemEquivalence:
    @pytest.mark.parametrize("engine_factory,epc_bytes", [
        (AmdSme, None),
        (lambda: IntelMee(cache_lines=costs.MEE_METADATA_CACHE_LINES // 8),
         8 << 20),
    ], ids=["amd-sme", "intel-mee+epc"])
    def test_all_modes_bit_identical(self, engine_factory, epc_bytes):
        results = _sweep_modes(
            lambda: _drive_workload(engine_factory(), epc_bytes=epc_bytes))
        legacy = results.pop(fastpath.MODE_LEGACY)
        assert results, "no fast mode available to compare"
        for mode, state in results.items():
            assert state == legacy, f"mode {mode} diverged from legacy"

    def test_membench_points_bit_identical(self):
        # The exact Figure 11 kernel, on a subset of its grid (the full
        # legacy sweep is minutes; the per-point kernel is identical).
        from repro.apps import membench
        configs = [
            ("none", "seq", 64 * 1024, None),
            ("amd-sme", "random", 16 << 20, None),
            ("intel-mee", "seq", 64 << 20, costs.SGX_EPC_SIZE),
            ("intel-mee", "random", 256 << 20, costs.SGX_EPC_SIZE),
        ]

        def run():
            return [membench.measure_latency(
                engine, pattern, size, epc_bytes=epc).cycles_per_access
                for engine, pattern, size, epc in configs]

        results = _sweep_modes(run)
        legacy = results.pop(fastpath.MODE_LEGACY)
        for mode, latencies in results.items():
            assert latencies == legacy, f"mode {mode} diverged from legacy"


class TestBenchmarkEquivalence:
    def test_table1_figures_and_fingerprints_bit_identical(self):
        from repro.bench.registry import resolve
        from repro.telemetry import sink as telemetry_sink

        spec = resolve(["table1_edge_calls"])[0]
        spec.load()

        def run():
            with telemetry_sink.capture() as sink:
                figures = spec.run()
                fingerprints = sink.state_fingerprints()
                doc = sink.document()
            return {
                "figures": figures,
                "fingerprints": fingerprints,
                "total_cycles": doc["combined"]["total_cycles"],
                "by_subsystem": doc["combined"]["by_subsystem"],
            }

        results = _sweep_modes(run)
        legacy = results.pop(fastpath.MODE_LEGACY)
        assert legacy["fingerprints"], "table1 must fingerprint machines"
        for mode, state in results.items():
            assert state == legacy, f"mode {mode} diverged from legacy"


class TestMeeReset:
    def test_reset_zeroes_metadata_counters(self):
        mee = IntelMee(cache_lines=64)
        cycles = CycleCounter()
        mem = MemorySubsystem(cycles, mee, llc=Llc(256 * 1024),
                              tlb=Tlb(16))
        mem.touch_sequential(0, 1 << 20)
        before = mee.stats()
        assert before["metadata_misses"] > 0
        assert before["metadata_cached"] > 0
        mee.reset()
        assert mee.stats() == {"metadata_hits": 0, "metadata_misses": 0,
                               "metadata_cached": 0}

    def test_reset_makes_configurations_reproducible(self):
        # Cold-start semantics: the same workload after reset() charges
        # the same cycles and lands the same counters — no state leaks
        # across benchmark configurations.
        mee = IntelMee(cache_lines=64)

        def one_config():
            cycles = CycleCounter()
            mem = MemorySubsystem(cycles, mee, llc=Llc(256 * 1024),
                                  tlb=Tlb(16))
            mem.touch_sequential(0, 1 << 20)
            return cycles.total, mee.stats()

        first = one_config()
        mee.reset()
        second = one_config()
        assert second == first
