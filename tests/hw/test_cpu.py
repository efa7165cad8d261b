"""Tests for the CPU model."""

import pytest

from repro.errors import HardwareError
from repro.hw.cpu import Cpu, CpuMode, VcpuState


def test_asid_allocation_unique():
    cpu = Cpu()
    assert cpu.allocate_asid() != cpu.allocate_asid()


def test_charge_steps_totals():
    cpu = Cpu()
    total = cpu.charge_steps([("a", 10), ("b", 32)], "test")
    assert total == 42
    assert cpu.cycles.total == 42
    assert cpu.cycles.by_category["test"] == 42


def test_require_mode_guard():
    cpu = Cpu()
    cpu.mode = CpuMode.GUEST_USER
    cpu.require_mode(CpuMode.GUEST_USER, CpuMode.GUEST_KERNEL)
    with pytest.raises(HardwareError):
        cpu.require_mode(CpuMode.MONITOR)


def test_load_context_switches_mode():
    cpu = Cpu()
    state = VcpuState(name="enclave-1", mode=CpuMode.GUEST_USER, asid=5)
    cpu.load_context(state)
    assert cpu.mode is CpuMode.GUEST_USER
    assert cpu.current is state


def test_vcpu_snapshot_is_a_copy():
    state = VcpuState(name="x", mode=CpuMode.GUEST_USER,
                      regs={"rip": 0x1000})
    snap = state.snapshot()
    state.regs["rip"] = 0x2000
    assert snap["rip"] == 0x1000


def test_rdtsc_reads_cycles():
    cpu = Cpu()
    cpu.cycles.charge(7, "compute")
    assert cpu.rdtsc() == 7
