"""Tests for cycle accounting."""

import pytest

from repro.hw.cycles import (CATEGORIES, CLASSES, CycleCounter,
                             critpath_class)
from repro.telemetry import subsystem_for_category

#: (subsystem, critical-path class) of every registry entry.  Values are
#: those of the two fold tables the registry replaced; the five marked
#: "was other" were undeclared there and folded to ("other", "other").
PINNED_FOLDS = {
    "hypercall": ("monitor", "kernel"),
    "tlb-shootdown": ("monitor", "kernel"),
    "pte-update": ("monitor", "kernel"),
    "interrupt": ("monitor", "kernel"),
    "measure": ("monitor", "kernel"),
    "seal": ("monitor", "kernel"),
    "seal-key": ("monitor", "kernel"),
    "edmm-sgx2": ("monitor", "swap-stall"),
    "demand-paging": ("monitor", "swap-stall"),
    "swap-in": ("monitor", "swap-stall"),
    "swap-out": ("monitor", "swap-stall"),
    "eenter": ("world", "world-switch"),
    "eexit": ("world", "world-switch"),
    "aex": ("world", "world-switch"),
    "aex-interrupt": ("world", "world-switch"),            # was other
    "eresume": ("world", "world-switch"),
    "tlb-warmup": ("world", "world-switch"),
    "exception": ("world", "enclave-compute"),
    "pf": ("world", "enclave-compute"),
    "sdk-ecall": ("sdk", "marshalling"),
    "sdk-ocall": ("sdk", "marshalling"),
    "memcpy": ("sdk", "marshalling"),
    "switchless": ("sdk", "marshalling"),
    "enclave-memory": ("memory", "enclave-compute"),
    "native-memory": ("memory", "enclave-compute"),
    "memory": ("memory", "enclave-compute"),
    "compute": ("memory", "enclave-compute"),
    "own-pt-update": ("memory", "enclave-compute"),
    "invlpg": ("memory", "enclave-compute"),
    "parse": ("memory", "enclave-compute"),                # was other
    "codegen": ("memory", "enclave-compute"),              # was other
    "victim-compute": ("memory", "enclave-compute"),       # was other
    "resident-touch": ("other", "enclave-compute"),
    "syscall": ("os", "kernel"),
    "kernel-work": ("os", "kernel"),
    "ctxsw": ("os", "kernel"),
    "pte-fill": ("os", "kernel"),
    "os-fault": ("os", "kernel"),
    "signal": ("os", "kernel"),
    "npt-fill": ("os", "kernel"),
    "vfs": ("os", "kernel"),
    "link": ("os", "kernel"),
    "netstack": ("os", "kernel"),                          # was other
}

#: Family members fold like their head.
FAMILY_MEMBERS = {
    "eenter:gu": ("world", "world-switch"),
    "eenter:hu": ("world", "world-switch"),
    "eenter:p": ("world", "world-switch"),
    "aex-interrupt:sgx": ("world", "world-switch"),
    "pf:gu": ("world", "enclave-compute"),
    "exception:gu": ("world", "enclave-compute"),
}


def test_registry_pins_every_category_fold():
    assert set(CATEGORIES) == set(PINNED_FOLDS)
    expected = {**PINNED_FOLDS, **FAMILY_MEMBERS}
    folds = {category: (subsystem_for_category(category),
                        critpath_class(category)) for category in expected}
    assert folds == expected
    assert CLASSES == ("enclave-compute", "world-switch", "marshalling",
                       "swap-stall", "kernel", "other")
    assert {cls for _, cls in folds.values()} <= set(CLASSES)


def test_charge_accumulates():
    c = CycleCounter()
    c.charge(100, "a")
    c.charge(50, "b")
    assert c.total == 150
    assert c.by_category["a"] == 100
    assert c.by_category["b"] == 50


def test_negative_charge_rejected():
    c = CycleCounter()
    with pytest.raises(ValueError):
        c.charge(-1, "compute")


def test_measure_span():
    c = CycleCounter()
    c.charge(10, "compute")
    with c.measure() as span:
        c.charge(42, "inner")
    assert span.elapsed == 42
    assert span.categories == {"inner": 42}


def test_measure_span_nested():
    c = CycleCounter()
    with c.measure() as outer:
        c.charge(5, "x")
        with c.measure() as inner:
            c.charge(7, "y")
    assert inner.elapsed == 7
    assert outer.elapsed == 12


def test_breakdown_is_copy():
    c = CycleCounter()
    c.charge(1, "a")
    snapshot = c.breakdown()
    c.charge(1, "a")
    assert snapshot["a"] == 1


def test_span_stop_without_start_raises():
    from repro.hw.cycles import CycleSpan
    span = CycleSpan(CycleCounter())
    with pytest.raises(RuntimeError):
        span.stop()
