"""Tests for machine assembly and the interrupt model."""

import pytest

from repro.hw.interrupts import Idt, InterruptModel
from repro.hw.machine import Machine, MachineConfig


def test_default_machine_builds():
    m = Machine()
    assert m.encryption.name == "amd-sme"
    assert m.phys.size == m.config.phys_size


def test_encryption_selection():
    m = Machine(MachineConfig(encryption="intel-mee"))
    assert m.encryption.name == "intel-mee"
    m = Machine(MachineConfig(encryption="none"))
    assert m.encryption.name == "none"


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        MachineConfig(encryption="rot13")


def test_reserved_region_must_fit():
    with pytest.raises(ValueError):
        MachineConfig(phys_size=1 << 30, reserved_base=1 << 30,
                      reserved_size=1 << 20)


def test_reboot_resets_volatile_state():
    m = Machine()
    m.tpm.extend(0, b"\x11" * 32)
    m.tlb.insert(1, 0x1000, 0x2000, 0)
    m.reboot()
    assert m.tpm.read_pcr(0) == b"\x00" * 32
    assert len(m.tlb) == 0


def test_rdtsc_monotonic():
    m = Machine()
    t0 = m.cpu.rdtsc()
    m.cycles.charge(100, "compute")
    assert m.cpu.rdtsc() == t0 + 100


class TestInterruptModel:
    def test_arrivals_accumulate(self):
        model = InterruptModel(interval_cycles=1000)
        assert model.arrivals_during(500) == 0
        assert model.arrivals_during(600) == 1      # crossed 1000
        assert model.arrivals_during(2900) == 3     # 1100..4000

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            InterruptModel().arrivals_during(-1)

    def test_reset(self):
        model = InterruptModel(interval_cycles=1000)
        model.arrivals_during(999)
        model.reset()
        assert model.arrivals_during(999) == 0


class TestIdt:
    def test_set_and_get(self):
        idt = Idt()
        handler = lambda: "hit"
        idt.set_handler(14, handler)
        assert idt.handler_for(14) is handler
        assert idt.handler_for(6) is None

    def test_bad_vector_rejected(self):
        with pytest.raises(ValueError):
            Idt().set_handler(300, lambda: None)

    def test_clear(self):
        idt = Idt()
        idt.set_handler(6, lambda: None)
        idt.clear()
        assert idt.handler_for(6) is None
