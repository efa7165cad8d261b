"""The trusted runtime (tRTS): what enclave code runs against.

``EnclaveContext`` is the first argument of every trusted function.  It
provides enclave-private memory (real bytes through the enclave's own
page table, demand-committed by RustMonitor on first touch), cost-only
``touch``/``compute`` accounting for workload kernels, OCALLs through the
marshalling buffer, sealing, local reports and remote quotes, and the
mode-dependent exception machinery of Table 2.
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.cipher import aead_decrypt, aead_encrypt
from repro.errors import (EnclaveError, PageFault, SdkError,
                          SecurityViolation)
from repro.hw import costs, memaccess
from repro.hw.phys import PAGE_SIZE
from repro.monitor.enclave import Enclave
from repro.monitor.sealing import SealPolicy
from repro.monitor.structs import EnclaveMode, PagePerm, Tcs

# Vector numbers re-exported for enclave code.
from repro.hw.interrupts import VEC_PF, VEC_UD

PfHandler = Callable[["EnclaveContext", int], None]
ExcHandler = Callable[["EnclaveContext", int], None]


class EnclaveContext:
    """The enclave-side execution context for one loaded enclave."""

    def __init__(self, handle) -> None:
        # ``handle`` is the uRTS EnclaveHandle; the context only touches
        # the pieces an enclave legitimately reaches.
        self._handle = handle
        self.enclave: Enclave = handle.enclave
        self._monitor = handle.monitor
        self._world = handle.world
        self.mem = handle.enclave_mem
        self._machine = handle.machine
        layout = handle.layout
        self._heap_base = self.enclave.secs.base + layout.heap_start
        self._heap_end = self._heap_base + layout.heap_size
        self._heap_cursor = self._heap_base
        self.globals: dict[str, object] = {}
        self.pf_handler: PfHandler | None = None
        self.exc_handler: ExcHandler | None = None
        self._in_handler = False
        self.current_tcs: Tcs | None = None

    # ------------------------------------------------------------- memory --

    @property
    def mode(self) -> EnclaveMode:
        return self.enclave.mode

    def malloc(self, size: int) -> int:
        """Bump-allocate enclave heap (demand-committed on first touch)."""
        if size <= 0:
            raise SdkError("malloc of non-positive size")
        size = (size + 15) & ~15
        va = self._heap_cursor
        if va + size > self._heap_end:
            raise SdkError("enclave heap exhausted")
        self._heap_cursor += size
        return va

    def heap_reset(self) -> None:
        """Arena-style free of everything malloc'd (tests/benchmarks)."""
        self._heap_cursor = self._heap_base

    def _abstract(self, va: int) -> int:
        # Keep per-enclave address spaces apart in the shared LLC model.
        return va + (self.enclave.enclave_id << 50)

    def read(self, va: int, size: int) -> bytes:
        """Read enclave-virtual memory (real bytes + cost accounting)."""
        self.mem.touch(self._abstract(va), size)
        return self._access(va, size, write=False)

    def write(self, va: int, data: bytes) -> None:
        """Write enclave-virtual memory (real bytes + cost accounting)."""
        self.mem.touch(self._abstract(va), len(data), write=True)
        self._access(va, len(data), write=True, data=data)

    def read_stream(self, va: int, size: int) -> bytes:
        """Bulk read at streaming rate: used by the marshalling paths.

        The SDK's copies are rep-movsb streams whose latency the
        prefetchers hide; the caller charges the memcpy-rate cost, so no
        per-line touches here.
        """
        return self._access(va, size, write=False)

    def write_stream(self, va: int, data: bytes) -> None:
        """Bulk write at streaming rate (see :meth:`read_stream`)."""
        self._access(va, len(data), write=True, data=data)

    def _access(self, va: int, size: int, *, write: bool,
                data: bytes | None = None) -> bytes:
        if write:
            memaccess.copy_out(self._machine.phys, self._translate_write,
                               va, data)
            return b""
        return memaccess.copy_in(self._machine.phys, self._translate_read,
                                 va, size)

    # The per-page translate callbacks of ``_access``: one walk of the
    # enclave's page table, and on a fault the handling below.
    def _translate_read(self, va: int) -> int:
        try:
            return self.enclave.pt.translate(va).pa
        except PageFault as fault:
            return self._translate_after_fault(fault, va, write=False)

    def _translate_write(self, va: int) -> int:
        try:
            return self.enclave.pt.translate(va, write=True).pa
        except PageFault as fault:
            return self._translate_after_fault(fault, va, write=True)

    def _translate_after_fault(self, fault: PageFault, va: int, *,
                               write: bool) -> int:
        if not fault.present:
            # Not-present fault: RustMonitor demand-commits (Sec 3.2).
            self._monitor.handle_enclave_page_fault(
                self.enclave.enclave_id, va, write=write)
        else:
            # Protection fault: the enclave's own handler may fix it up
            # (the GC scenario of Table 2).
            self._dispatch_protection_fault(va)
        return self.enclave.translate(va, write=write)

    # cost-only accounting for workload kernels -------------------------------

    def touch(self, addr: int, size: int = 8, *, write: bool = False) -> None:
        """Charge the memory-system cost of an access without moving bytes."""
        self.mem.touch(self._abstract(addr), size, write=write)

    def touch_sequential(self, addr: int, size: int, *,
                         write: bool = False) -> None:
        self.mem.touch_sequential(self._abstract(addr), size, write=write)

    def compute(self, ops: float) -> None:
        """Charge pure-compute cycles."""
        self.mem.compute(ops)

    # ------------------------------------------------------------ edge calls --

    def ocall(self, name: str, **kwargs):
        """Call out to the untrusted application (through the uRTS)."""
        return self._handle.dispatch_ocall(self, name, kwargs)

    # ------------------------------------------------------- user_check help --

    def copy_from_user(self, app_va: int, size: int) -> bytes:
        """Read a user_check pointer.

        On HyperEnclave the enclave can only reach the marshalling buffer;
        on the SGX baseline the whole application address space is fair
        game (which is what enclave malware exploits, Sec 6).
        """
        if self.enclave.accessible(app_va, size):
            self.mem.touch(self._abstract(app_va), size)
            return self._access(app_va, size, write=False)
        if self.mode is EnclaveMode.SGX:
            return self._handle.app_read(app_va, size)
        raise SecurityViolation(
            f"enclave access to application memory at {app_va:#x} outside "
            f"the marshalling buffer")

    def copy_to_user(self, app_va: int, data: bytes) -> None:
        """Write through a user_check pointer (same policy as reads)."""
        if self.enclave.accessible(app_va, len(data), write=True):
            self.mem.touch(self._abstract(app_va), len(data), write=True)
            self._access(app_va, len(data), write=True, data=data)
            return
        if self.mode is EnclaveMode.SGX:
            self._handle.app_write(app_va, data)
            return
        raise SecurityViolation(
            f"enclave write to application memory at {app_va:#x} outside "
            f"the marshalling buffer")

    # ------------------------------------------------------------- security --

    def get_seal_key(self, policy: SealPolicy = SealPolicy.MRENCLAVE) -> bytes:
        return self._monitor.egetkey(self.enclave.enclave_id, policy=policy)

    def seal_data(self, data: bytes, *, aad: bytes = b"",
                  policy: SealPolicy = SealPolicy.MRENCLAVE) -> bytes:
        """sgx_seal_data: AEAD under the enclave's sealing key."""
        key = self.get_seal_key(policy)
        nonce = self.random(16)
        self.compute(len(data) * 2 + 2000)       # AES-GCM-ish cost
        policy_tag = policy.value.encode()
        return policy_tag + b":" + aead_encrypt(key, nonce, data,
                                                aad=policy_tag + aad)

    def unseal_data(self, blob: bytes, *, aad: bytes = b"") -> bytes:
        """sgx_unseal_data; raises SealError on wrong enclave/tamper."""
        policy_tag, _, body = blob.partition(b":")
        policy = SealPolicy(policy_tag.decode())
        key = self.get_seal_key(policy)
        self.compute(len(body) * 2 + 2000)
        return aead_decrypt(key, body, aad=policy_tag + aad)

    def seal_versioned(self, data: bytes, *, aad: bytes = b"",
                       policy: SealPolicy = SealPolicy.MRENCLAVE) -> bytes:
        """Seal with rollback protection (TPM NV monotonic counter).

        Every versioned seal bumps the enclave's monotonic counter and
        binds the new value into the blob; :meth:`unseal_versioned` only
        accepts the blob matching the *current* counter, so the untrusted
        OS cannot replay stale sealed state (e.g. an old wallet balance).
        """
        version = self._monitor.monotonic_counter_increment(
            self.enclave.enclave_id)
        header = version.to_bytes(8, "little")
        blob = self.seal_data(data, aad=aad + b"|version:" + header,
                              policy=policy)
        return header + blob

    def unseal_versioned(self, blob: bytes, *, aad: bytes = b"") -> bytes:
        """Unseal rollback-protected state; raises on stale versions."""
        from repro.errors import SealError
        if len(blob) < 8:
            raise SealError("versioned blob too short")
        header, body = blob[:8], blob[8:]
        version = int.from_bytes(header, "little")
        current = self._monitor.monotonic_counter_read(
            self.enclave.enclave_id)
        if version != current:
            raise SealError(
                f"rollback detected: sealed state is version {version}, "
                f"the monotonic counter says {current}")
        return self.unseal_data(body, aad=aad + b"|version:" + header)

    def create_report(self, target_mrenclave: bytes, report_data: bytes):
        """EREPORT for local attestation."""
        return self._monitor.ereport(self.enclave.enclave_id, report_data,
                                     target_mrenclave)

    def verify_report(self, report) -> bool:
        return self._monitor.verify_local_report(self.enclave.enclave_id,
                                                 report)

    def get_quote(self, report_data: bytes, nonce: bytes):
        """The remote-attestation quote (Figure 4)."""
        return self._monitor.quote(self.enclave.enclave_id, report_data,
                                   nonce)

    def random(self, n: int) -> bytes:
        return self._machine.tpm.random(n)

    # ------------------------------------------------------------ exceptions --

    def register_exception_handler(self, handler: ExcHandler,
                                   vectors: set[int] | None = None) -> None:
        """Install an in-enclave exception handler.

        For P-Enclaves the listed vectors are white-listed for direct
        in-enclave IDT dispatch (Sec 4.3); for GU/HU/SGX the handler runs
        in phase two of the two-phase flow.
        """
        self.exc_handler = handler
        if self.mode is EnclaveMode.P:
            self.enclave.whitelisted_vectors = vectors or {VEC_UD, VEC_PF}

    def register_pf_handler(self, handler: PfHandler) -> None:
        self.pf_handler = handler

    def trigger_ud(self) -> None:
        """Execute an undefined instruction (the Table 2 #UD benchmark)."""
        if self.exc_handler is None:
            raise EnclaveError("#UD with no handler: enclave aborts")
        if self.mode is EnclaveMode.P and \
                VEC_UD in self.enclave.whitelisted_vectors:
            # Delivered through the enclave's own IDT: no world switch.
            self._machine.cpu.charge_steps(costs.P_ENCLAVE_EXCEPTION_STEPS,
                                           "exception:p")
            self._run_handler(self.exc_handler, VEC_UD)
            return
        self._two_phase_exception(VEC_UD)

    def _two_phase_exception(self, vector: int) -> None:
        """AEX -> OS signal -> internal ECALL to the handler -> ERESUME."""
        enclave = self.enclave
        tcs = self.current_tcs
        if tcs is None:
            raise EnclaveError("exception outside an ECALL")
        tel = self._machine.telemetry
        tel.count("sdk", "exceptions.two_phase", vector=vector,
                  mode=enclave.mode.value)
        with tel.span("trts.exception", enclave=enclave.enclave_id,
                      vector=vector), tel.cause(f"exception:{vector}"):
            self._world.aex(enclave, tcs, vector)
            self._handle.kernel.deliver_signal(
                self._handle.process, _signal_for(vector),
                vector=vector)
            # Phase 2: the uRTS re-enters the enclave to run the handler
            # (a full internal ECALL, which is why GU/SGX are so slow
            # here).
            mode = enclave.mode.value
            self._world.eenter(enclave, tcs, self._handle.AEP)
            self._world.charge_ecall_warmup(enclave)
            for _, cyc in costs.ECALL_SDK_STEPS:
                self._machine.cycles.charge(cyc, "sdk-ecall")
            self._machine.cycles.charge(costs.EXCEPTION_HANDLER_WORK,
                                        f"exception:{mode}")
            self._run_handler(self.exc_handler, vector)
            self._world.eexit(enclave, self._handle.AEP)
            self._world.eresume(enclave, tcs)

    def _dispatch_protection_fault(self, va: int) -> None:
        """The GC scenario (Table 2 #PF): restore permissions in-handler."""
        if self.pf_handler is None:
            raise PageFault(va, write=True, present=True)
        mode = self.mode
        if mode is EnclaveMode.P:
            self._machine.cpu.charge_steps(costs.P_PF_STEPS, "pf:p")
        elif mode is EnclaveMode.GU:
            self._machine.cpu.charge_steps(costs.GU_PF_STEPS, "pf:gu")
        else:
            # HU / SGX: the OS two-phase path (not a paper data point);
            # approximate with the GU monitor path plus the signal hop.
            self._machine.cpu.charge_steps(costs.GU_PF_STEPS, "pf:other")
            self._machine.cycles.charge(costs.OS_SIGNAL_DISPATCH, "signal")
        self._run_handler(self.pf_handler, va)

    def _run_handler(self, handler, arg) -> None:
        self._in_handler = True
        try:
            handler(self, arg)
        finally:
            self._in_handler = False

    # ------------------------------------------------- interrupt monitoring --

    def enable_interrupt_monitor(self, *, window_cycles: float = 1_000_000,
                                 max_per_window: int = 32) -> None:
        """Arm the P-Enclave interrupt-anomaly detector (Sec 4.3).

        "P-Enclaves may also detect abnormal interrupt events by counting
        the frequency, before requesting RustMonitor to route them to the
        primary OS.  As such, existing interrupt-based side channel
        attacks could be detected and mitigated."

        Only meaningful for P-Enclaves (other modes never see their own
        interrupts).  When more than ``max_per_window`` interrupts land
        within ``window_cycles``, the enclave flags the anomaly and asks
        RustMonitor to stop passing interrupts through (evicting the
        vectors from the white-list), which starves single-stepping
        attacks like SGX-Step.
        """
        if self.mode is not EnclaveMode.P:
            raise SdkError("interrupt monitoring needs a P-Enclave")
        self._int_window = window_cycles
        self._int_max = max_per_window
        self._int_arrivals: list[int] = []
        self.interrupt_anomaly = False

    def deliver_interrupt(self, vector: int) -> bool:
        """One interrupt delivered to the P-Enclave's own IDT.

        Returns True while delivery stays in-enclave; False once the
        anomaly detector has rerouted interrupts to the primary OS.
        """
        if getattr(self, "_int_window", None) is None:
            raise SdkError("interrupt monitor not enabled")
        if self.interrupt_anomaly:
            # Already rerouted: the interrupt goes to the primary OS
            # (full AEX round trip), not to the enclave.
            self._machine.cpu.charge_steps(costs.AEX_STEPS["p"], "aex:p")
            self._machine.cpu.charge_steps(costs.ERESUME_STEPS["p"],
                                           "eresume:p")
            return False
        self._machine.cpu.charge_steps(costs.P_ENCLAVE_EXCEPTION_STEPS,
                                       "exception:p")
        now = self._machine.cycles.read()
        self._int_arrivals.append(now)
        cutoff = now - self._int_window
        self._int_arrivals = [t for t in self._int_arrivals if t >= cutoff]
        if len(self._int_arrivals) > self._int_max:
            # Abnormal frequency: request RustMonitor to reroute.
            self.interrupt_anomaly = True
            self.enclave.whitelisted_vectors.clear()
            return False
        return True

    # ------------------------------------------------ page permissions (GC) --

    def mprotect(self, va: int, npages: int, perms: PagePerm) -> None:
        """Change enclave page permissions.

        P-Enclaves edit their own level-1 page table; GU/HU/SGX enclaves
        must hypercall RustMonitor (Sec 4.3).  Inside a fault handler the
        cost is already covered by the itemized step list.
        """
        if self._in_handler:
            for i in range(npages):
                self.enclave.protect_page(va + i * PAGE_SIZE, perms)
                if self.mode is EnclaveMode.P:
                    # P edits its own table; only its own vCPU caches it.
                    self._machine.tlb.invlpg(self.enclave.enclave_id,
                                             va + i * PAGE_SIZE)
                else:
                    # The monitor invalidates conservatively: it cannot
                    # know which cores cached the translation (IPIs on
                    # SMP; free on one CPU, so Table 2 stays calibrated).
                    self._monitor._tlb_shootdown(self.enclave.enclave_id,
                                                 va + i * PAGE_SIZE)
            return
        if self.mode is EnclaveMode.P:
            for i in range(npages):
                self.enclave.protect_page(va + i * PAGE_SIZE, perms)
                self._machine.cycles.charge(474, "own-pt-update")
                self._machine.tlb.invlpg(self.enclave.enclave_id,
                                         va + i * PAGE_SIZE)
                self._machine.cycles.charge(200, "invlpg")
            return
        self._monitor.enclave_mprotect(self.enclave.enclave_id, va, npages,
                                       perms)


def _signal_for(vector: int) -> int:
    from repro.osim.kernel import SIGILL, SIGSEGV
    return SIGILL if vector == VEC_UD else SIGSEGV
