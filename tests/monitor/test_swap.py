"""Tests for enclave page swapping (EWB/ELDU analog, Sec 3.2)."""

import pytest

from repro.errors import (MonitorError, PhysicalMemoryError,
                          SecurityViolation)
from repro.hw.phys import PAGE_SIZE, OwnerKind
from repro.monitor.enclave import ENCLAVE_BASE_VA

from .conftest import build_minimal_enclave

HEAP_VA = ENCLAVE_BASE_VA + 16 * PAGE_SIZE


@pytest.fixture
def grown(platform):
    """An enclave with 4 committed heap pages holding known content."""
    machine, boot = platform
    monitor = boot.monitor
    eid, enclave = build_minimal_enclave(monitor, machine)
    for i in range(4):
        monitor.handle_enclave_page_fault(eid, HEAP_VA + i * PAGE_SIZE,
                                          write=True)
        pa = enclave.translate(HEAP_VA + i * PAGE_SIZE, write=True)
        machine.phys.write(pa, b"PAGE%d" % i + b"\xAA" * 100)
    return machine, monitor, eid, enclave


class TestSwapRoundtrip:
    def test_swap_out_frees_frame(self, grown):
        machine, monitor, eid, enclave = grown
        pa = enclave.translate(HEAP_VA)
        free_before = monitor.epc_pool.free_pages
        assert monitor.swap_out(eid, HEAP_VA) == 1
        assert monitor.epc_pool.free_pages == free_before + 1
        assert enclave.page_at(HEAP_VA) is None
        # The frame was scrubbed before release.
        assert machine.phys.read(pa, 5) == b"\x00" * 5
        assert machine.phys.owner_of(pa).kind is OwnerKind.FREE

    def test_fault_swaps_back_with_content(self, grown):
        machine, monitor, eid, enclave = grown
        monitor.swap_out(eid, HEAP_VA)
        monitor.handle_enclave_page_fault(eid, HEAP_VA, write=True)
        pa = enclave.translate(HEAP_VA)
        assert machine.phys.read(pa, 5) == b"PAGE0"

    def test_transparent_via_context_access(self, platform):
        """An enclave read just works across a swap-out."""
        machine, boot = platform
        monitor = boot.monitor
        from tests.sdk.conftest import demo_image
        from repro.platform import TeePlatform
        # Use the handle-level ctx for a full read path.
        eid, enclave = build_minimal_enclave(monitor, machine)
        monitor.handle_enclave_page_fault(eid, HEAP_VA, write=True)
        pa = enclave.translate(HEAP_VA)
        machine.phys.write(pa, b"persistent")
        monitor.swap_out(eid, HEAP_VA)
        # Fault path (as ctx._translate_after_fault would drive it):
        monitor.handle_enclave_page_fault(eid, HEAP_VA)
        assert machine.phys.read(enclave.translate(HEAP_VA), 10) \
            == b"persistent"

    def test_swap_multiple_pages(self, grown):
        machine, monitor, eid, enclave = grown
        assert monitor.swap_out(eid, HEAP_VA, npages=4) == 4
        for i in range(4):
            monitor.handle_enclave_page_fault(eid, HEAP_VA + i * PAGE_SIZE)
            pa = enclave.translate(HEAP_VA + i * PAGE_SIZE)
            assert machine.phys.read(pa, 5) == b"PAGE%d" % i

    def test_double_swap_out_rejected(self, grown):
        _, monitor, eid, _ = grown
        monitor.swap_out(eid, HEAP_VA)
        # A second eviction of the same page: it is no longer committed.
        with pytest.raises(MonitorError, match="uncommitted|already"):
            from repro.monitor.swap import swap_out_page
            state = monitor._swap_state(monitor.enclaves[eid])
            swap_out_page(monitor, monitor.enclaves[eid], state,
                          monitor.swap_store, HEAP_VA)

    def test_swap_out_uncommitted_counts_zero(self, grown):
        _, monitor, eid, _ = grown
        assert monitor.swap_out(eid, HEAP_VA + 8 * PAGE_SIZE) == 0


class TestSwapSecurity:
    def test_tampered_blob_detected(self, grown):
        machine, monitor, eid, enclave = grown
        monitor.swap_out(eid, HEAP_VA)
        record = monitor._swap_state(enclave).records[HEAP_VA]
        monitor.swap_store.tamper(record.token, 40)
        with pytest.raises(SecurityViolation, match="integrity"):
            monitor.handle_enclave_page_fault(eid, HEAP_VA)

    def test_blob_substitution_detected(self, grown):
        """The OS swaps two pages' blobs: the VA binding catches it."""
        machine, monitor, eid, enclave = grown
        monitor.swap_out(eid, HEAP_VA)
        monitor.swap_out(eid, HEAP_VA + PAGE_SIZE)
        state = monitor._swap_state(enclave)
        token_a = state.records[HEAP_VA].token
        token_b = state.records[HEAP_VA + PAGE_SIZE].token
        monitor.swap_store.replace(token_a, token_b)
        with pytest.raises(SecurityViolation):
            monitor.handle_enclave_page_fault(eid, HEAP_VA)

    def test_replay_of_stale_version_detected(self, grown):
        """The OS replays an older blob of the same page."""
        machine, monitor, eid, enclave = grown
        monitor.swap_out(eid, HEAP_VA)
        state = monitor._swap_state(enclave)
        stale_blob = monitor.swap_store.get(state.records[HEAP_VA].token)
        monitor.handle_enclave_page_fault(eid, HEAP_VA, write=True)
        # Mutate the page and swap again: new version.
        pa = enclave.translate(HEAP_VA, write=True)
        machine.phys.write(pa, b"NEWDATA")
        monitor.swap_out(eid, HEAP_VA)
        record = state.records[HEAP_VA]
        monitor.swap_store._blobs[record.token] = stale_blob   # replay
        with pytest.raises(SecurityViolation):
            monitor.handle_enclave_page_fault(eid, HEAP_VA)

    def test_swap_keys_differ_per_enclave(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid1, e1 = build_minimal_enclave(monitor, machine, code=b"one")
        eid2, e2 = build_minimal_enclave(monitor, machine, code=b"two")
        assert monitor._swap_state(e1).key != monitor._swap_state(e2).key


class TestPoolPressureReclaim:
    def test_exhausted_pool_reclaims_by_swapping(self):
        """Filling the EPC past capacity transparently evicts pages."""
        from repro.hw.machine import Machine, MachineConfig
        from repro.monitor.boot import measured_late_launch
        machine = Machine(MachineConfig(
            phys_size=256 * 1024 * 1024,
            reserved_base=128 * 1024 * 1024,
            reserved_size=16 * 1024 * 1024,   # tiny EPC
        ))
        boot = measured_late_launch(machine,
                                    monitor_private_size=2 * 1024 * 1024)
        monitor = boot.monitor
        eid, enclave = build_minimal_enclave(
            monitor, machine, size=8192 * PAGE_SIZE, with_msbuf=False)
        monitor.reserve_region(eid, ENCLAVE_BASE_VA + 128 * PAGE_SIZE,
                               4096 * PAGE_SIZE)
        pool_pages = monitor.epc_pool.free_pages
        # Touch more pages than the pool holds: must not raise.
        for i in range(pool_pages + 32):
            monitor.handle_enclave_page_fault(
                eid, ENCLAVE_BASE_VA + (128 + i) * PAGE_SIZE, write=True)
        assert monitor._swap_state(enclave).records   # something evicted
        # And an evicted page still comes back intact.
        victim_va = next(iter(monitor._swap_state(enclave).records))
        monitor.handle_enclave_page_fault(eid, victim_va, write=True)
