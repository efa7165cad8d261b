"""Adversarial tests: break each monitor invariant, catch the exact code.

Every test bypasses the monitor's legitimate surface the way a buggy (or
malicious) refactor would, and asserts the sanitizer raises a
:class:`SanitizerViolation` carrying the specific ``SAN-*`` code — not
just *an* error.
"""

from __future__ import annotations

import pytest

from repro.hw.paging import PageTableFlags
from repro.hw.phys import FREE, MONITOR, NORMAL, PAGE_SIZE
from repro.monitor.enclave import ENCLAVE_BASE_VA, perms_to_flags
from repro.monitor.structs import PagePerm
from repro.osim.kernel import Kernel
from repro.sanitizer import (SAN_ALIAS, SAN_MEASURE, SAN_NPT, SAN_OWNER,
                             SAN_REACH, SAN_SHADOW, SAN_SWAP, SAN_TLB,
                             SAN_WX, SanitizerViolation)
from tests.monitor.conftest import build_minimal_enclave


def test_epc_frame_mapped_into_untrusted_gpt(sanitized_platform):
    """A malicious OS forges a process PTE onto an enclave frame; the
    sanitizer rejects it before the PTE lands (SAN-REACH)."""
    machine, boot = sanitized_platform
    eid, enclave = build_minimal_enclave(boot.monitor, machine)
    kernel = Kernel(machine, boot.monitor)
    process = kernel.spawn()
    with pytest.raises(SanitizerViolation) as exc:
        process.pt.map(0x7E0000000000, enclave.pages[0].pa,
                       PageTableFlags.URW)
    assert exc.value.code == SAN_REACH
    # The poisonous mapping never landed.
    assert not list(process.pt.mappings())


def test_skipped_tlb_shootdown_detected(sanitized_platform):
    """Flipping a PTE without a shootdown leaves a stale translation; the
    shadow TLB-coherence protocol flags it (SAN-TLB)."""
    machine, boot = sanitized_platform
    eid, enclave = build_minimal_enclave(boot.monitor, machine)
    # Bypass RustMonitor.enclave_mprotect, which would shoot down.
    enclave.protect_page(ENCLAVE_BASE_VA, PagePerm.R)
    with pytest.raises(SanitizerViolation) as exc:
        boot.monitor.audit_invariants()
    assert exc.value.code == SAN_TLB


def test_write_to_measured_page_after_einit(sanitized_platform):
    """Enclave code pages are frozen by the EINIT measurement; a direct
    physical write afterwards is caught (SAN-MEASURE)."""
    machine, boot = sanitized_platform
    eid, enclave = build_minimal_enclave(boot.monitor, machine)
    machine.phys.write(enclave.pages[0].pa, b"patched after measurement")
    with pytest.raises(SanitizerViolation) as exc:
        boot.monitor.audit_invariants()
    assert exc.value.code == SAN_MEASURE


def test_double_mapped_frame_across_enclaves(sanitized_platform):
    """Two enclaves sharing one physical frame is the classic aliasing
    hole (SAN-ALIAS, the old I-2)."""
    machine, boot = sanitized_platform
    eid1, enclave1 = build_minimal_enclave(boot.monitor, machine)
    eid2, enclave2 = build_minimal_enclave(boot.monitor, machine,
                                           with_msbuf=False)
    enclave2.pt.map(ENCLAVE_BASE_VA + 48 * PAGE_SIZE, enclave1.pages[0].pa,
                    perms_to_flags(PagePerm.RX))
    with pytest.raises(SanitizerViolation, match="I-2") as exc:
        boot.monitor.audit_invariants()
    assert exc.value.code == SAN_ALIAS


def test_foreign_frame_in_enclave_pt(sanitized_platform):
    """An enclave mapping a frame it does not own trips ownership
    (SAN-OWNER, the old I-1)."""
    machine, boot = sanitized_platform
    eid, enclave = build_minimal_enclave(boot.monitor, machine)
    stray = 0x200000
    machine.phys.set_owner(stray, NORMAL)
    enclave.pt.map(ENCLAVE_BASE_VA + 40 * PAGE_SIZE, stray,
                   perms_to_flags(PagePerm.RW))
    with pytest.raises(SanitizerViolation, match="I-1") as exc:
        boot.monitor.audit_invariants()
    assert exc.value.code == SAN_OWNER


def test_wx_mapping_rejected(sanitized_platform):
    """Writable+executable enclave mappings violate W^X (SAN-WX)."""
    machine, boot = sanitized_platform
    eid, enclave = build_minimal_enclave(boot.monitor, machine)
    with pytest.raises(SanitizerViolation) as exc:
        boot.monitor.enclave_mprotect(eid, ENCLAVE_BASE_VA, 1, PagePerm.RWX)
    assert exc.value.code == SAN_WX


def test_swap_version_tamper_detected(sanitized_platform):
    """Bumping a swap record's version counter (an anti-replay rollback
    setup) diverges from the shadow (SAN-SWAP)."""
    machine, boot = sanitized_platform
    eid, enclave = build_minimal_enclave(boot.monitor, machine)
    heap_va = ENCLAVE_BASE_VA + 16 * PAGE_SIZE
    boot.monitor.handle_enclave_page_fault(eid, heap_va, write=True)
    boot.monitor.swap_out(eid, heap_va)
    boot.monitor._swap_states[eid].records[heap_va].version += 1
    with pytest.raises(SanitizerViolation) as exc:
        boot.monitor.audit_invariants()
    assert exc.value.code == SAN_SWAP


def test_ownership_bypass_diverges_shadow(sanitized_platform):
    """Mutating the owner table without going through ``set_owner``
    (i.e. bypassing the hooked surface) is caught by the lockstep
    comparison (SAN-SHADOW)."""
    machine, boot = sanitized_platform
    machine.phys._owners[10] = NORMAL
    with pytest.raises(SanitizerViolation) as exc:
        boot.monitor.audit_invariants()
    assert exc.value.code == SAN_SHADOW


@pytest.mark.parametrize("owner, message", [
    # A freed frame inside the region carries an explicit FREE entry;
    # dropping it makes the region tag show through again, which only a
    # check that reads region tags can see.
    (FREE, "real owner monitor, shadow free"),
    (NORMAL, "real owner monitor, shadow normal"),
])
def test_region_frame_bypass_caught_per_op(sanitized_platform, owner,
                                           message):
    """A frame inside a region-tagged range whose own owner entry is
    dropped behind ``set_owner`` (so the region tag shows through) is
    caught by the per-op lockstep check, not only by the full audit
    (SAN-SHADOW)."""
    machine, boot = sanitized_platform
    san = machine.phys.sanitizer
    start, end, region_owner = machine.phys._regions[0]
    assert region_owner == MONITOR and end - start > 8
    frame = start + 7
    machine.phys.set_owner(frame * PAGE_SIZE, owner)
    san.after_monitor_op(boot.monitor, "test")      # in lockstep
    machine.phys.set_owner(frame * PAGE_SIZE, owner)  # dirty again
    del machine.phys._owners[frame]
    with pytest.raises(SanitizerViolation, match=message) as exc:
        san.after_monitor_op(boot.monitor, "test")
    assert exc.value.code == SAN_SHADOW


def test_npt_over_reserved_region(sanitized_platform):
    """Re-adding the reserved region to the normal VM's NPT re-opens R-1
    (SAN-NPT, the old I-3)."""
    machine, boot = sanitized_platform
    cfg = machine.config
    boot.monitor.normal_npt.add(cfg.reserved_base,
                                cfg.reserved_base + cfg.reserved_size)
    with pytest.raises(SanitizerViolation, match="I-3") as exc:
        boot.monitor.audit_invariants()
    assert exc.value.code == SAN_NPT


def test_violation_carries_frame_history(sanitized_platform):
    """Violations are actionable: the frame's transition history (who
    owned it, during which op) rides along in the exception."""
    machine, boot = sanitized_platform
    eid, enclave = build_minimal_enclave(boot.monitor, machine)
    kernel = Kernel(machine, boot.monitor)
    process = kernel.spawn()
    with pytest.raises(SanitizerViolation) as exc:
        process.pt.map(0x7E0000000000, enclave.pages[0].pa,
                       PageTableFlags.URW)
    assert exc.value.history, "frame history missing"
    assert any(t.op == "eadd" for t in exc.value.history)
    assert "frame history" in str(exc.value)


def test_violations_counted_in_telemetry(sanitized_platform):
    """Every violation bumps the sanitizer counter, labeled by code."""
    machine, boot = sanitized_platform
    eid, enclave = build_minimal_enclave(boot.monitor, machine)
    machine.phys.write(enclave.pages[0].pa, b"tamper")
    with pytest.raises(SanitizerViolation):
        boot.monitor.audit_invariants()
    counter = machine.telemetry.registry.counter(
        "sanitizer", "violations", code=SAN_MEASURE)
    assert counter.value >= 1
    assert machine.sanitizer.violations >= 1
