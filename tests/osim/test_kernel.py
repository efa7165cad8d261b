"""Tests for the primary-OS kernel: processes, mmap, signals, policing."""

import pytest

from repro.errors import OsError, PageFault, SecurityViolation
from repro.hw.phys import MONITOR, NORMAL, PAGE_SIZE, enclave_owner


class TestProcesses:
    def test_spawn_assigns_pids(self, system):
        _, _, kernel, _ = system
        p1, p2 = kernel.spawn(), kernel.spawn()
        assert p1.pid != p2.pid

    def test_exit_releases_memory(self, system):
        _, _, kernel, _ = system
        before = kernel.frame_pool.free_pages
        p = kernel.spawn()
        kernel.mmap(p, 4 * PAGE_SIZE, populate=True)
        kernel.exit(p)
        assert kernel.frame_pool.free_pages == before

    def test_dead_process_cannot_translate(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        vma = kernel.mmap(p, PAGE_SIZE, populate=True)
        kernel.exit(p)
        with pytest.raises(OsError):
            p.translate(vma.start)

    def test_schedule_round_robin(self, system):
        _, _, kernel, _ = system
        p1, p2 = kernel.spawn(), kernel.spawn()
        order = [kernel.schedule().pid for _ in range(4)]
        assert order == [p1.pid, p2.pid, p1.pid, p2.pid]

    def test_schedule_empty_queue(self, system):
        _, _, kernel, _ = system
        assert kernel.schedule() is None


class TestMmap:
    def test_populate_commits_frames(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        vma = kernel.mmap(p, 2 * PAGE_SIZE, populate=True)
        assert len(vma.frames) == 2
        assert p.translate(vma.start)

    def test_lazy_mmap_faults_then_commits(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        vma = kernel.mmap(p, 2 * PAGE_SIZE, populate=False)
        with pytest.raises(PageFault):
            p.translate(vma.start)
        kernel.handle_user_fault(p, vma.start)
        assert p.translate(vma.start)

    def test_bad_size_rejected(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        with pytest.raises(OsError):
            kernel.mmap(p, 123)

    def test_overlap_rejected(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        vma = kernel.mmap(p, PAGE_SIZE, populate=True)
        with pytest.raises(OsError):
            kernel.mmap(p, PAGE_SIZE, addr=vma.start)

    def test_munmap_releases(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        # Warm the page-table path so intermediate table frames (which
        # persist until the process exits) don't skew the count.
        warm = kernel.mmap(p, PAGE_SIZE, populate=True)
        kernel.munmap(p, warm)
        before = kernel.frame_pool.free_pages
        vma = kernel.mmap(p, PAGE_SIZE, populate=True, addr=warm.start)
        kernel.munmap(p, vma)
        assert kernel.frame_pool.free_pages == before
        with pytest.raises(PageFault):
            p.translate(vma.start)

    def test_pinned_vma_cannot_be_unmapped(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        vma = kernel.mmap(p, PAGE_SIZE, populate=True)
        kernel.pin(p, vma)
        with pytest.raises(OsError):
            kernel.munmap(p, vma)

    def test_pin_requires_populated(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        vma = kernel.mmap(p, PAGE_SIZE, populate=False)
        with pytest.raises(OsError):
            kernel.pin(p, vma)

    def test_write_fault_on_readonly_vma(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        vma = kernel.mmap(p, PAGE_SIZE, writable=False, populate=False)
        with pytest.raises(PageFault):
            kernel.handle_user_fault(p, vma.start, write=True)


class TestUserMemory:
    def test_read_write_roundtrip(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        vma = kernel.mmap(p, PAGE_SIZE, populate=True)
        kernel.user_write(p, vma.start + 10, b"hello user")
        assert kernel.user_read(p, vma.start + 10, 10) == b"hello user"

    def test_demand_paging_on_write(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        vma = kernel.mmap(p, 4 * PAGE_SIZE, populate=False)
        kernel.user_write(p, vma.start + PAGE_SIZE, b"lazy")
        assert kernel.user_read(p, vma.start + PAGE_SIZE, 4) == b"lazy"

    def test_cross_page_write(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        vma = kernel.mmap(p, 2 * PAGE_SIZE, populate=True)
        data = bytes(range(100))
        kernel.user_write(p, vma.start + PAGE_SIZE - 50, data)
        assert kernel.user_read(p, vma.start + PAGE_SIZE - 50, 100) == data

    def test_os_cannot_map_user_page_at_enclave_frame(self, system):
        """R-1: even if the OS forges a PTE to an enclave frame, the
        physical access is blocked."""
        machine, boot, kernel, _ = system
        from tests.monitor.conftest import build_minimal_enclave
        eid, enclave = build_minimal_enclave(boot.monitor, machine)
        p = kernel.spawn()
        vma = kernel.mmap(p, PAGE_SIZE, populate=True)
        # Malicious kernel: remap the user page onto the enclave's frame.
        # The sanitizer (REPRO_SANITIZE=1) rejects the forged PTE at map
        # time; without it, the physical access is what gets blocked.
        from repro.hw.paging import PageTableFlags
        p.pt.unmap(vma.start)
        with pytest.raises(SecurityViolation):
            p.pt.map(vma.start, enclave.pages[0].pa, PageTableFlags.URW)
            kernel.user_read(p, vma.start, 8)


class TestPoliceMemo:
    """The monitor remembers normal frames that passed its check; a
    frame whose owner or NPT mapping changed must be refused anyway."""

    PAGES = 4

    @pytest.fixture
    def warm(self, system):
        """A process with four written pages, each frame already passed
        (and remembered) by a read and a write."""
        machine, boot, kernel, _ = system
        assert boot.monitor.os_demoted
        p = kernel.spawn()
        vma = kernel.mmap(p, self.PAGES * PAGE_SIZE, populate=True)
        data = bytes(range(256)) * (self.PAGES * PAGE_SIZE // 256)
        kernel.user_write(p, vma.start, data)
        assert kernel.user_read(p, vma.start, len(data)) == data
        frames = [p.translate(vma.start + i * PAGE_SIZE)
                  for i in range(self.PAGES)]
        remembered = boot.monitor._normal_frames
        assert {pa // PAGE_SIZE for pa in frames} <= remembered
        return machine, boot, kernel, p, vma, frames

    @staticmethod
    def _retag_on_translate(machine, p, vma, monkeypatch, at_page, frame_pa,
                            owner):
        """Make ``p``'s translate of page ``at_page`` retag ``frame_pa``;
        returns the list of pages translated."""
        translate = p.translate
        seen = []

        def retagging(va, *, write=False):
            page = (va - vma.start) // PAGE_SIZE
            seen.append(page)
            if page == at_page:
                machine.phys.set_owner(frame_pa, owner)
            return translate(va, write=write)

        monkeypatch.setattr(p, "translate", retagging)
        return seen

    @pytest.mark.parametrize("owner", [enclave_owner(77), MONITOR],
                             ids=["enclave", "monitor"])
    @pytest.mark.parametrize("op", ["read", "write"])
    def test_a_frame_retagged_mid_copy_is_refused(self, warm, monkeypatch,
                                                  owner, op):
        machine, boot, kernel, p, vma, frames = warm
        seen = self._retag_on_translate(machine, p, vma, monkeypatch, 1,
                                        frames[2], owner)
        with pytest.raises(SecurityViolation, match=owner.kind.value):
            if op == "read":
                kernel.user_read(p, vma.start + 8, 3 * PAGE_SIZE)
            else:
                kernel.user_write(p, vma.start + 8, b"\x55" * 3 * PAGE_SIZE)
        assert seen == [0, 1, 2]            # refused at the retagged page
        machine.phys.set_owner(frames[2], NORMAL)

    @pytest.mark.parametrize("owner", [enclave_owner(77), MONITOR],
                             ids=["enclave", "monitor"])
    def test_a_frame_retagged_between_copies_is_refused(self, warm, owner):
        machine, boot, kernel, p, vma, frames = warm
        machine.phys.set_owner(frames[3], owner)
        with pytest.raises(SecurityViolation, match=owner.kind.value):
            kernel.user_read(p, vma.start, self.PAGES * PAGE_SIZE)
        with pytest.raises(SecurityViolation, match=owner.kind.value):
            kernel.user_write(p, vma.start + 3 * PAGE_SIZE, b"\x01")
        # The untouched frames still pass.
        kernel.user_read(p, vma.start, 3 * PAGE_SIZE)
        machine.phys.set_owner(frames[3], NORMAL)
        kernel.user_read(p, vma.start, self.PAGES * PAGE_SIZE)

    def test_an_npt_remove_after_a_frame_passed_refuses_it(self, warm):
        machine, boot, kernel, p, vma, frames = warm
        npt = boot.monitor.normal_npt
        npt.remove(frames[1], frames[1] + PAGE_SIZE)
        with pytest.raises(SecurityViolation, match="NPT violation"):
            boot.monitor.check_normal_access(frames[1] + 16, 8)
        with pytest.raises(SecurityViolation, match="NPT violation"):
            kernel.user_read(p, vma.start, 2 * PAGE_SIZE)
        with pytest.raises(SecurityViolation, match="NPT violation"):
            kernel.user_write(p, vma.start + PAGE_SIZE, b"\x01")
        boot.monitor.check_normal_access(frames[0], PAGE_SIZE)
        npt.add(frames[1], frames[1] + PAGE_SIZE)
        kernel.user_read(p, vma.start, 2 * PAGE_SIZE)

    def test_a_remembered_frame_still_refuses_an_access_past_its_end(
            self, warm):
        machine, boot, kernel, p, vma, frames = warm
        edge = machine.config.reserved_base - PAGE_SIZE
        boot.monitor.check_normal_access(edge, PAGE_SIZE)
        assert edge // PAGE_SIZE in boot.monitor._normal_frames
        with pytest.raises(SecurityViolation, match="NPT violation"):
            boot.monitor.check_normal_access(edge + PAGE_SIZE - 4, 8)

    def test_a_frame_only_partly_in_the_npt_is_not_remembered(self, warm):
        machine, boot, kernel, p, vma, frames = warm
        hole = frames[0] + PAGE_SIZE // 2
        boot.monitor.normal_npt.remove(hole, hole + 1)
        boot.monitor.check_normal_access(frames[0], 8)      # below the hole
        assert frames[0] // PAGE_SIZE not in boot.monitor._normal_frames
        with pytest.raises(SecurityViolation, match="NPT violation"):
            boot.monitor.check_normal_access(hole, 1)


class TestSignals:
    def test_delivery_to_handler(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        seen = {}
        p.register_signal_handler(4, lambda **info: seen.update(info))
        kernel.deliver_signal(p, 4, vector=6)
        assert seen == {"vector": 6}

    def test_unhandled_signal_kills(self, system):
        _, _, kernel, _ = system
        p = kernel.spawn()
        with pytest.raises(OsError, match="killed"):
            kernel.deliver_signal(p, 11)

    def test_signal_charges_dispatch_cost(self, system):
        from repro.hw import costs
        machine, _, kernel, _ = system
        p = kernel.spawn()
        p.register_signal_handler(4, lambda **info: None)
        with machine.cycles.measure() as span:
            kernel.deliver_signal(p, 4)
        assert span.elapsed == costs.OS_SIGNAL_DISPATCH
