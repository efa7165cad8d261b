"""A/B equivalence: the reference loop and the fast path are bit-identical.

The fast paths (translation memoization, batched cycle charging,
bulk memory-cost kernels) are pure optimizations: every observable
— cycle totals, per-category breakdowns, TLB/LLC/MEE counters, machine
state fingerprints, benchmark figures — must match the per-line
reference loop exactly, not approximately.
"""

from __future__ import annotations

import random

import pytest

from repro.hw import costs, memmodel
from repro.hw.cache import Llc
from repro.hw.cycles import CycleCounter
from repro.hw.memenc import AmdSme, IntelMee
from repro.hw.memmodel import EpcModel, MemorySubsystem
from repro.hw.tlb import Tlb


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


class TestMemorySubsystemEquivalence:
    @pytest.mark.parametrize("engine_factory,epc_bytes", [
        (AmdSme, None),
        (lambda: IntelMee(cache_lines=costs.MEE_METADATA_CACHE_LINES // 8),
         8 << 20),
    ], ids=["amd-sme", "intel-mee+epc"])
    def test_all_modes_bit_identical(self, ab_run, engine_factory,
                                     epc_bytes):
        reference, default = ab_run(
            lambda: _drive_workload(engine_factory(), epc_bytes=epc_bytes))
        assert default == reference

    def test_membench_points_bit_identical(self, ab_run):
        # The exact Figure 11 kernel, on a subset of its grid (the full
        # reference sweep is minutes; the per-point kernel is identical).
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

        reference, default = ab_run(run)
        assert default == reference


class TestBenchmarkEquivalence:
    # Table 1 times edge calls alone and never reaches
    # MemorySubsystem.touch; Table 2's #PF handling does.
    @pytest.mark.parametrize("name,touches", [
        ("table1_edge_calls", False), ("table2_exceptions", True),
    ], ids=["table1_edge_calls", "table2_exceptions"])
    def test_figures_and_fingerprints_bit_identical(self, ab_run, name,
                                                    touches):
        from repro.bench.registry import resolve
        from repro.telemetry import sink as telemetry_sink

        spec = resolve([name])[0]
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

        reference, default = ab_run(run, touches=touches)
        assert reference["fingerprints"], f"{name} must fingerprint machines"
        assert default == reference


class TestIneligibleFallback:
    """Configurations the fast path cannot reproduce take the loop."""

    def test_fractional_and_subclassed_engines_are_ineligible(self):
        class PlainMeeSubclass(IntelMee):
            pass

        for engine in (AmdSme(per_miss=1.5), PlainMeeSubclass()):
            mem = MemorySubsystem(CycleCounter(), engine)
            mem.touch(0)
            assert mem._fp_kind == memmodel._KIND_INELIGIBLE

    def test_cold_one_line_touch_charges_walk_dram_and_miss(self):
        cycles = CycleCounter()
        mem = MemorySubsystem(cycles, AmdSme(per_miss=1.5))
        charged = mem.touch(0)
        expected = costs.PAGE_WALK_GUEST_CYCLES + costs.DRAM_CYCLES + 1.5
        assert charged == expected
        assert cycles.total == expected


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
