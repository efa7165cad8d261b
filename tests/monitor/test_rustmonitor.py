"""Tests for the RustMonitor hypercall surface and enclave lifecycle."""

import dataclasses

import pytest

from repro.errors import (EnclaveError, PageFault, SecurityViolation)
from repro.hw.paging import PageTableFlags
from repro.hw.phys import NORMAL, PAGE_SIZE, OwnerKind
from repro.monitor.enclave import ENCLAVE_BASE_VA
from repro.monitor.sealing import SealPolicy
from repro.monitor.structs import (EnclaveConfig, EnclaveMode, PagePerm,
                                   PageType, Sigstruct)

from .conftest import VENDOR_KEY, build_minimal_enclave


class TestLifecycle:
    def test_create_add_init(self, platform):
        machine, boot = platform
        eid, enclave = build_minimal_enclave(boot.monitor, machine)
        assert enclave.secs.mrenclave
        assert enclave.mode is EnclaveMode.GU

    def test_enclave_pages_owned_by_enclave(self, platform):
        machine, boot = platform
        eid, enclave = build_minimal_enclave(boot.monitor, machine)
        page = enclave.pages[0]
        owner = machine.phys.owner_of(page.pa)
        assert owner.kind is OwnerKind.ENCLAVE
        assert owner.enclave_id == eid

    def test_eadd_content_lands_in_epc(self, platform):
        machine, boot = platform
        eid, enclave = build_minimal_enclave(boot.monitor, machine,
                                             code=b"secret code")
        pa = enclave.pages[0].pa
        assert machine.phys.read(pa, 11) == b"secret code"

    def test_einit_rejects_wrong_measurement(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid = monitor.ecreate(EnclaveConfig(), size=16 * PAGE_SIZE)
        monitor.eadd(eid, 0, b"real code")
        sig = Sigstruct.sign(b"\x00" * 32, VENDOR_KEY)   # wrong hash
        with pytest.raises(SecurityViolation):
            monitor.einit(eid, sig)

    def test_einit_rejects_bad_signature(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid = monitor.ecreate(EnclaveConfig(), size=16 * PAGE_SIZE)
        monitor.eadd(eid, 0, b"code")
        mrenclave = monitor.enclaves[eid].measurement.finalize()
        sig = Sigstruct.sign(mrenclave, VENDOR_KEY)
        forged = dataclasses.replace(sig, signature=b"\x00" * len(sig.signature))
        with pytest.raises(SecurityViolation):
            monitor.einit(eid, forged)

    def test_eadd_after_einit_rejected(self, platform):
        machine, boot = platform
        eid, enclave = build_minimal_enclave(boot.monitor, machine)
        with pytest.raises(EnclaveError):
            boot.monitor.eadd(eid, 8 * PAGE_SIZE, b"late page")

    def test_eremove_scrubs_and_frees(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        free_before = monitor.epc_pool.free_pages
        eid, enclave = build_minimal_enclave(monitor, machine,
                                             code=b"very secret")
        pa = enclave.pages[0].pa
        monitor.eremove(eid)
        assert monitor.epc_pool.free_pages == free_before
        assert machine.phys.read(pa, 11) == b"\x00" * 11
        assert eid not in monitor.enclaves

    def test_duplicate_offset_rejected(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid = monitor.ecreate(EnclaveConfig(), size=16 * PAGE_SIZE)
        monitor.eadd(eid, 0, b"a")
        with pytest.raises(EnclaveError):
            monitor.eadd(eid, 0, b"b")

    def test_offset_outside_elrange_rejected(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid = monitor.ecreate(EnclaveConfig(), size=16 * PAGE_SIZE)
        with pytest.raises(EnclaveError):
            monitor.eadd(eid, 16 * PAGE_SIZE, b"beyond")

    def test_unknown_enclave_rejected(self, platform):
        machine, boot = platform
        with pytest.raises(EnclaveError):
            boot.monitor.eadd(999, 0, b"")

    def test_measurement_depends_on_mode(self, platform):
        machine, boot = platform
        _, gu = build_minimal_enclave(boot.monitor, machine,
                                      mode=EnclaveMode.GU, with_msbuf=False)
        _, hu = build_minimal_enclave(boot.monitor, machine,
                                      mode=EnclaveMode.HU, with_msbuf=False)
        assert gu.secs.mrenclave != hu.secs.mrenclave


class TestDemandPaging:
    def test_fault_in_reserved_region_commits(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid, enclave = build_minimal_enclave(monitor, machine)
        heap_va = ENCLAVE_BASE_VA + 16 * PAGE_SIZE
        assert enclave.page_at(heap_va) is None
        monitor.handle_enclave_page_fault(eid, heap_va, write=True)
        page = enclave.page_at(heap_va)
        assert page is not None
        assert enclave.translate(heap_va, write=True) == page.pa

    def test_fault_outside_reserved_region_propagates(self, platform):
        machine, boot = platform
        eid, enclave = build_minimal_enclave(boot.monitor, machine)
        wild_va = ENCLAVE_BASE_VA + 60 * PAGE_SIZE
        with pytest.raises(PageFault):
            boot.monitor.handle_enclave_page_fault(eid, wild_va)

    def test_demand_paging_charges_itemized_cost(self, platform):
        from repro.hw import costs
        machine, boot = platform
        monitor = boot.monitor
        eid, enclave = build_minimal_enclave(monitor, machine)
        with machine.cycles.measure() as span:
            monitor.handle_enclave_page_fault(
                eid, ENCLAVE_BASE_VA + 16 * PAGE_SIZE)
        assert span.elapsed == sum(c for _, c in
                                   costs.DEMAND_PAGING_PF_STEPS)


class TestMprotect:
    def test_permission_change_via_hypercall(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid, enclave = build_minimal_enclave(monitor, machine)
        heap_va = ENCLAVE_BASE_VA + 16 * PAGE_SIZE
        monitor.handle_enclave_page_fault(eid, heap_va, write=True)
        monitor.enclave_mprotect(eid, heap_va, 1, PagePerm.R)
        assert not enclave.accessible(heap_va, write=True)
        monitor.enclave_mprotect(eid, heap_va, 1, PagePerm.RW)
        assert enclave.accessible(heap_va, write=True)

    def test_mprotect_uncommitted_page_rejected(self, platform):
        machine, boot = platform
        eid, _ = build_minimal_enclave(boot.monitor, machine)
        with pytest.raises(EnclaveError):
            boot.monitor.enclave_mprotect(
                eid, ENCLAVE_BASE_VA + 40 * PAGE_SIZE, 1, PagePerm.R)


class TestMarshallingBuffer:
    def test_enclave_can_reach_buffer(self, platform):
        machine, boot = platform
        eid, enclave = build_minimal_enclave(boot.monitor, machine)
        ms = enclave.marshalling
        assert enclave.accessible(ms.base_va, ms.size, write=True)

    def test_enclave_cannot_reach_other_app_memory(self, platform):
        machine, boot = platform
        eid, enclave = build_minimal_enclave(boot.monitor, machine)
        # One page past the marshalling buffer: unmapped in the enclave PT.
        assert not enclave.accessible(enclave.marshalling.base_va
                                      + enclave.marshalling.size)

    def test_refused_check_sets_no_accessed_or_dirty_bit(self, platform):
        machine, boot = platform
        eid, enclave = build_minimal_enclave(boot.monitor, machine)
        ms = enclave.marshalling
        last_page = ms.base_va + ms.size - PAGE_SIZE
        # Spans the buffer's last (writable) page and the unmapped one
        # after it: the check is refused, and nothing was written.
        assert not enclave.accessible(last_page, 2 * PAGE_SIZE, write=True)
        flags = enclave.pt.translate(last_page, set_accessed=False).flags
        assert not flags & PageTableFlags.ACCESSED
        assert not flags & PageTableFlags.DIRTY

    def test_buffer_overlapping_elrange_rejected(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid = monitor.ecreate(EnclaveConfig(), size=16 * PAGE_SIZE)
        monitor.eadd(eid, 0, b"code")
        mrenclave = monitor.enclaves[eid].measurement.finalize()
        sig = Sigstruct.sign(mrenclave, VENDOR_KEY)
        pa = 0x100000
        machine.phys.set_owner(pa, NORMAL)
        crafted = (ENCLAVE_BASE_VA + PAGE_SIZE, PAGE_SIZE, [pa])
        with pytest.raises(SecurityViolation):
            monitor.einit(eid, sig, marshalling=crafted)

    def test_buffer_in_epc_frames_rejected(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid = monitor.ecreate(EnclaveConfig(), size=16 * PAGE_SIZE)
        monitor.eadd(eid, 0, b"code")
        mrenclave = monitor.enclaves[eid].measurement.finalize()
        sig = Sigstruct.sign(mrenclave, VENDOR_KEY)
        epc_frame = monitor.epc_pool.base   # monitor-owned memory
        crafted = (0x7F0000000000, PAGE_SIZE, [epc_frame])
        with pytest.raises(SecurityViolation):
            monitor.einit(eid, sig, marshalling=crafted)


class TestKeysAndReports:
    def test_egetkey_differs_per_enclave(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid1, _ = build_minimal_enclave(monitor, machine, code=b"app one",
                                        with_msbuf=False)
        eid2, _ = build_minimal_enclave(monitor, machine, code=b"app two",
                                        with_msbuf=False)
        assert monitor.egetkey(eid1) != monitor.egetkey(eid2)

    def test_egetkey_stable_for_same_enclave(self, platform):
        machine, boot = platform
        eid, _ = build_minimal_enclave(boot.monitor, machine)
        assert boot.monitor.egetkey(eid) == boot.monitor.egetkey(eid)

    def test_mrsigner_policy_shared_across_versions(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid1, _ = build_minimal_enclave(monitor, machine, code=b"v1",
                                        with_msbuf=False)
        eid2, _ = build_minimal_enclave(monitor, machine, code=b"v2",
                                        with_msbuf=False)
        key1 = monitor.egetkey(eid1, policy=SealPolicy.MRSIGNER)
        key2 = monitor.egetkey(eid2, policy=SealPolicy.MRSIGNER)
        assert key1 == key2   # same vendor -> same seal key

    def test_local_attestation_roundtrip(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid1, e1 = build_minimal_enclave(monitor, machine, code=b"prover",
                                         with_msbuf=False)
        eid2, e2 = build_minimal_enclave(monitor, machine, code=b"verifier",
                                         with_msbuf=False)
        report = monitor.ereport(eid1, b"hello", e2.secs.mrenclave)
        assert monitor.verify_local_report(eid2, report)

    def test_local_report_wrong_target_fails(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid1, e1 = build_minimal_enclave(monitor, machine, code=b"prover",
                                         with_msbuf=False)
        eid2, e2 = build_minimal_enclave(monitor, machine, code=b"verifier",
                                         with_msbuf=False)
        eid3, e3 = build_minimal_enclave(monitor, machine, code=b"bystander",
                                         with_msbuf=False)
        report = monitor.ereport(eid1, b"hello", e2.secs.mrenclave)
        assert not monitor.verify_local_report(eid3, report)

    def test_tampered_local_report_fails(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid1, e1 = build_minimal_enclave(monitor, machine, code=b"prover",
                                         with_msbuf=False)
        eid2, e2 = build_minimal_enclave(monitor, machine, code=b"verifier",
                                         with_msbuf=False)
        report = monitor.ereport(eid1, b"hello", e2.secs.mrenclave)
        forged = dataclasses.replace(report, report_data=b"evil")
        assert not monitor.verify_local_report(eid2, forged)


class TestNormalAccessPolicing:
    def test_normal_memory_ok(self, platform):
        machine, boot = platform
        boot.monitor.check_normal_access(0x1000, 64)

    def test_reserved_memory_blocked(self, platform):
        machine, boot = platform
        with pytest.raises(SecurityViolation):
            boot.monitor.check_normal_access(machine.config.reserved_base)

    def test_enclave_frame_blocked(self, platform):
        machine, boot = platform
        eid, enclave = build_minimal_enclave(boot.monitor, machine)
        with pytest.raises(SecurityViolation):
            boot.monitor.check_normal_access(enclave.pages[0].pa)

    def test_straddling_access_blocked(self, platform):
        machine, boot = platform
        edge = machine.config.reserved_base - 4
        with pytest.raises(SecurityViolation):
            boot.monitor.check_normal_access(edge, 8)
