"""The primary-OS kernel.

Runs in the normal VM's guest ring 0.  Owns normal memory, process page
tables, mmap/brk, pinning (for the marshalling buffer), signal delivery
and a round-robin run queue.  Every physical frame it hands out is normal
memory; every access it mediates is subject to the monitor's NPT check.
"""

from __future__ import annotations

from collections import deque

from repro.errors import OsError, PageFault
from repro.hw import costs, memaccess
from repro.hw.machine import Machine
from repro.hw.paging import PageTable, PageTableFlags
from repro.hw.phys import NORMAL, PAGE_SIZE, FramePool
from repro.monitor.rustmonitor import RustMonitor
from repro.osim.process import Process, VmArea

# Signal numbers we model.
SIGSEGV = 11
SIGILL = 4

_KERNEL_RESERVED_LOW = 16 * 1024 * 1024   # kernel text/data below here


class Kernel:
    """The untrusted primary OS."""

    def __init__(self, machine: Machine,
                 monitor: RustMonitor | None = None) -> None:
        self.machine = machine
        self.monitor = monitor
        # Normal memory: everything below the reserved region.
        pool_base = _KERNEL_RESERVED_LOW
        pool_size = machine.config.reserved_base - pool_base
        self.frame_pool = FramePool(machine.phys, pool_base, pool_size,
                                    NORMAL)
        self.processes: dict[int, Process] = {}
        self._next_pid = 1
        self.run_queue: deque[int] = deque()
        self.syscalls = 0
        # Running inside the normal VM: fresh guest mappings need nested
        # (NPT) fills.  Huge NPT pages keep this small (Appendix A.2).
        self.virtualized = monitor is not None
        # Fold OS state into Machine.state_hash(); deep dumps go to the
        # forensic bundles.
        machine.state_providers["kernel"] = self._state_for_hash
        machine.dump_providers["kernel"] = self._state_dump

    def _state_for_hash(self) -> dict:
        """Kernel-owned state for ``Machine.state_fingerprint()``."""
        processes = {}
        for pid, proc in self.processes.items():
            processes[pid] = {
                "pt_root": proc.pt.root_pa,
                "asid": proc.pt.asid,
                "alive": proc.alive,
                "vmas": [(v.start, v.size, v.writable, v.populated,
                          v.pinned, v.frames) for v in proc.vmas],
            }
        return {
            "processes": processes,
            "next_pid": self._next_pid,
            "run_queue": list(self.run_queue),
            "syscalls": self.syscalls,
            "free": self.frame_pool.state_digest(),
        }

    def _state_dump(self) -> dict:
        """Deep OS state for forensic bundles (full PT walks)."""
        processes = {}
        for pid, proc in self.processes.items():
            processes[str(pid)] = {
                "alive": proc.alive,
                "pt_root": proc.pt.root_pa,
                "asid": proc.pt.asid,
                "vmas": [{"start": v.start, "size": v.size,
                          "writable": v.writable, "pinned": v.pinned,
                          "frames": len(v.frames)} for v in proc.vmas],
                "page_table": [
                    {"va": va, "pa": pa, "flags": int(flags)}
                    for va, pa, flags in proc.pt.mappings()],
            }
        return {
            "processes": processes,
            "run_queue": list(self.run_queue),
            "syscalls": self.syscalls,
            "free_pages": self.frame_pool.free_pages,
        }

    def _charge_npt_fill(self, pages: int = 1) -> None:
        # One 2 MB huge NPT entry covers 512 guest pages, so the per-page
        # amortized fill cost is tiny — the paper's <1% result.
        if self.virtualized:
            self.machine.cycles.charge(60 * pages / 512.0, "npt-fill")

    # -- processes ------------------------------------------------------------

    def spawn(self) -> Process:
        """Create a process with a fresh page table."""
        pid = self._next_pid
        self._next_pid += 1
        pt = PageTable(self.machine.phys, self.frame_pool.alloc,
                       self.frame_pool.free,
                       stats=self.machine.telemetry.paging_stats("os"))
        if self.machine.sanitizer is not None:
            # Process page tables are untrusted: the sanitizer rejects any
            # attempt to map monitor/enclave frames through them.
            self.machine.sanitizer.register_untrusted_pt(pt)
        process = Process(pid, pt)
        self.processes[pid] = process
        self.run_queue.append(pid)
        return process

    def exit(self, process: Process) -> None:
        for vma in process.vmas:
            for pa in vma.frames:
                # The untrusted OS manages its own normal memory; the
                # monitor isolates EPC through NPT, not through this pool.
                # repro-lint: disable=SC006 -- the OS's own normal memory
                self.frame_pool.free(pa)
        # repro-lint: disable=SC006 -- the OS tears down its own page table
        process.pt.destroy()
        if self.machine.sanitizer is not None:
            self.machine.sanitizer.unregister_untrusted_pt(process.pt)
        process.alive = False
        self.processes.pop(process.pid, None)
        if process.pid in self.run_queue:
            self.run_queue.remove(process.pid)

    def schedule(self) -> Process | None:
        """Round-robin pick (charges a context-switch cost)."""
        if not self.run_queue:
            return None
        pid = self.run_queue.popleft()
        self.run_queue.append(pid)
        self.machine.cycles.charge(costs.SYSCALL_ROUNDTRIP * 10, "ctxsw")
        return self.processes[pid]

    # -- syscall mechanics -------------------------------------------------------

    def charge_syscall(self, work_cycles: float = 0.0) -> None:
        """Ring switch + kernel work for one system call."""
        self.syscalls += 1
        self.machine.cycles.charge(costs.SYSCALL_ROUNDTRIP, "syscall")
        if work_cycles:
            self.machine.cycles.charge(work_cycles, "kernel-work")
        self.machine.telemetry.count("os", "syscalls")

    # -- memory management ----------------------------------------------------------

    def mmap(self, process: Process, size: int, *, writable: bool = True,
             populate: bool = False, addr: int | None = None) -> VmArea:
        """Anonymous mmap; ``populate`` commits frames eagerly
        (MAP_POPULATE, used for the marshalling buffer, Sec 5.3)."""
        with self.machine.telemetry.site("mmap", pid=process.pid,
                                         populate=populate):
            self.charge_syscall(500)
            if size <= 0 or size % PAGE_SIZE:
                raise OsError("mmap size must be a positive page multiple")
            start = addr if addr is not None else process.next_mmap_va(size)
            if process.vma_at(start) or process.vma_at(start + size - 1):
                raise OsError(
                    f"mmap range at {start:#x} overlaps an existing VMA")
            vma = VmArea(start=start, size=size, writable=writable,
                         populated=populate)
            process.vmas.append(vma)
            if populate:
                flags = PageTableFlags.URW if writable else PageTableFlags.UR
                for i in range(size // PAGE_SIZE):
                    # repro-lint: disable=SC006 -- the OS's own normal memory
                    pa = self.frame_pool.alloc()
                    vma.frames.append(pa)
                    # repro-lint: disable=SC006 -- a guest PTE; NPT guards EPC
                    process.pt.map(start + i * PAGE_SIZE, pa, flags)
                # Guest PTE fills + page zeroing are the dominant cost.
                self.machine.cycles.charge(180 * (size // PAGE_SIZE),
                                           "pte-fill")
                self._charge_npt_fill(size // PAGE_SIZE)
            return vma

    def munmap(self, process: Process, vma: VmArea) -> None:
        self.charge_syscall(400)
        if vma.pinned:
            raise OsError("cannot munmap a pinned region")
        for i, pa in enumerate(vma.frames):
            # repro-lint: disable=SC006 -- a guest PTE; NPT guards EPC
            process.pt.unmap(vma.start + i * PAGE_SIZE)
            # repro-lint: disable=SC006 -- the OS's own normal memory
            self.frame_pool.free(pa)
        process.vmas.remove(vma)

    def pin(self, process: Process, vma: VmArea) -> None:
        """Pin a populated VMA: no swapping or compaction for its frames.

        The uRTS issues this ioctl for the marshalling buffer so its
        GPA->HPA mapping stays fixed for the enclave's lifetime.
        """
        if not vma.populated:
            raise OsError("only populated regions can be pinned")
        vma.pinned = True

    def handle_user_fault(self, process: Process, va: int, *,
                          write: bool = False) -> None:
        """Demand-page a non-populated VMA page."""
        vma = process.vma_at(va)
        if vma is None:
            raise PageFault(va, write=write)
        if write and not vma.writable:
            raise PageFault(va, write=True, present=True)
        page_va = va & ~(PAGE_SIZE - 1)
        # repro-lint: disable=SC006 -- the OS's own normal memory
        pa = self.frame_pool.alloc()
        vma.frames.append(pa)
        flags = PageTableFlags.URW if vma.writable else PageTableFlags.UR
        # repro-lint: disable=SC006 -- a guest PTE; NPT guards EPC
        process.pt.map(page_va, pa, flags)
        self.machine.cycles.charge(costs.DRAM_CYCLES + 800, "os-fault")
        self._charge_npt_fill()

    # -- user memory access (policed by the monitor) -----------------------------------

    def user_read(self, process: Process, va: int, size: int) -> bytes:
        """Read user memory on behalf of the process (R-1 enforced)."""
        def translate(page_va: int) -> int:
            try:
                pa = process.translate(page_va)
            except PageFault:
                self.handle_user_fault(process, page_va)
                pa = process.translate(page_va)
            self._police(pa)
            return pa
        return memaccess.copy_in(self.machine.phys, translate, va, size)

    def user_write(self, process: Process, va: int, data: bytes) -> None:
        """Write user memory on behalf of the process (R-1 enforced)."""
        def translate(page_va: int) -> int:
            try:
                pa = process.translate(page_va, write=True)
            except PageFault as fault:
                if fault.present:
                    raise
                self.handle_user_fault(process, page_va, write=True)
                pa = process.translate(page_va, write=True)
            self._police(pa)
            return pa
        memaccess.copy_out(self.machine.phys, translate, va, data)

    def _police(self, pa: int) -> None:
        if self.monitor is not None and self.monitor.os_demoted:
            self.monitor.check_normal_access(pa)

    # -- signals -------------------------------------------------------------------------

    def deliver_signal(self, process: Process, signal: int,
                       **info: object) -> object:
        """Dispatch a signal to the process's registered handler.

        This is the kernel leg of two-phase exception handling: the AEX
        lands in the OS, which signals the uRTS handler.
        """
        self.machine.cycles.charge(costs.OS_SIGNAL_DISPATCH, "signal")
        with self.machine.telemetry.site("signal", pid=process.pid,
                                         sig=signal):
            handler = process.signal_handlers.get(signal)
            if handler is None:
                raise OsError(f"process {process.pid} killed by unhandled "
                              f"signal {signal}")
            return handler(**info)
