"""World switches: entering and leaving enclaves (Sec 4, Figure 6).

The engine charges the calibrated per-step costs from
:mod:`repro.hw.costs` while performing the real side effects — TLB flushes
(full for GU/P, per-ASID for HU), CPU mode changes, SSA save/restore on
asynchronous exits, and the EEXIT target check that blocks the
enclave-malware jump attack (Sec 6).
"""

from __future__ import annotations

from repro.errors import EnclaveError, SecurityViolation
from repro.hw import costs
from repro.hw.cpu import Cpu, CpuMode
from repro.hw.tlb import Tlb
from repro.monitor.enclave import Enclave
from repro.monitor.structs import EnclaveMode, Tcs
from repro.telemetry import Telemetry

_ENCLAVE_CPU_MODE = {
    EnclaveMode.GU: CpuMode.GUEST_USER,
    EnclaveMode.HU: CpuMode.HOST_USER,
    EnclaveMode.P: CpuMode.GUEST_KERNEL,
    EnclaveMode.SGX: CpuMode.HOST_USER,   # SGX enclaves run in user mode
}


class WorldSwitchEngine:
    """Drives EENTER / EEXIT / AEX / ERESUME for one platform."""

    def __init__(self, cpu: Cpu, tlb: Tlb, telemetry: Telemetry) -> None:
        self.cpu = cpu
        self.tlb = tlb
        self.telemetry = telemetry
        self.enters = 0
        self.exits = 0
        self.aexes = 0

    @staticmethod
    def _mode_key(enclave: Enclave) -> str:
        return enclave.mode.value

    def _flush_for(self, enclave: Enclave) -> None:
        if enclave.mode in (EnclaveMode.HU, EnclaveMode.SGX):
            # HU switches CR3 with a fresh PCID and SGX tags enclave
            # translations; isolation comes from the ASID tags, so the
            # enclave's working set stays warm across switches.
            return
        # GU/P run under their own GPT+NPT: "TLBs are cleared upon world
        # switches to prevent illegal memory accesses using stale TLB
        # entries" (Sec 6).
        self.tlb.flush()

    # -- synchronous transitions ------------------------------------------------

    def eenter(self, enclave: Enclave, tcs: Tcs, aep: int) -> None:
        """Enter the enclave on thread ``tcs``; ``aep`` is the only
        address EEXIT may later return to."""
        if tcs not in enclave.tcs_list:
            raise EnclaveError("TCS does not belong to this enclave")
        mode = self._mode_key(enclave)
        with self.telemetry.site("eenter", enclave=enclave.enclave_id,
                                 mode=mode, tcs=tcs.index):
            self.cpu.charge_steps(costs.SWITCH_COSTS[mode].eenter,
                                  f"eenter:{mode}")
            self._flush_for(enclave)
            enclave.registered_aep = aep
            self.cpu.mode = _ENCLAVE_CPU_MODE[enclave.mode]
            self.enters += 1

    def eexit(self, enclave: Enclave, target: int) -> None:
        """Leave the enclave; the jump target is validated against the AEP.

        "since the EEXIT instruction is emulated by RustMonitor, it is
        easy to prevent such attacks by adding the validity check when
        EEXIT is invoked" (Sec 6).
        """
        if enclave.registered_aep is None:
            raise EnclaveError("EEXIT without a prior EENTER")
        if target != enclave.registered_aep:
            raise SecurityViolation(
                f"EEXIT to {target:#x} blocked: only the registered AEP "
                f"{enclave.registered_aep:#x} is a legal exit target")
        mode = self._mode_key(enclave)
        with self.telemetry.site("eexit", enclave=enclave.enclave_id,
                                 mode=mode):
            self.cpu.charge_steps(costs.SWITCH_COSTS[mode].eexit,
                                  f"eexit:{mode}")
            self._flush_for(enclave)
            self.cpu.mode = CpuMode.GUEST_USER
            self.exits += 1

    # -- asynchronous exits ----------------------------------------------------------

    def aex(self, enclave: Enclave, tcs: Tcs, vector: int,
            fault_addr: int | None = None) -> None:
        """Asynchronous enclave exit: save state to the SSA, scrub, leave."""
        frame = tcs.available_ssa()
        frame.regs = dict(self.cpu.current.regs) if self.cpu.current else {}
        frame.exception_vector = vector
        frame.exception_addr = fault_addr
        frame.valid = True
        tcs.current_ssa += 1
        enclave.interrupted_tcs = tcs
        mode = self._mode_key(enclave)
        with self.telemetry.site("aex", enclave=enclave.enclave_id,
                                 mode=mode, vector=vector):
            self.cpu.charge_steps(costs.AEX_STEPS[mode], f"aex:{mode}")
            self._flush_for(enclave)
            self.cpu.mode = CpuMode.GUEST_KERNEL   # the primary OS takes over
            self.aexes += 1

    def eresume(self, enclave: Enclave, tcs: Tcs) -> None:
        """Resume an interrupted enclave thread from its SSA frame."""
        if tcs.current_ssa == 0:
            raise EnclaveError("ERESUME with no saved SSA frame")
        tcs.current_ssa -= 1
        frame = tcs.ssa[tcs.current_ssa]
        frame.valid = False
        enclave.interrupted_tcs = None
        mode = self._mode_key(enclave)
        with self.telemetry.site("eresume", enclave=enclave.enclave_id,
                                 mode=mode):
            self.cpu.charge_steps(costs.ERESUME_STEPS[mode],
                                  f"eresume:{mode}")
            self._flush_for(enclave)
            self.cpu.mode = _ENCLAVE_CPU_MODE[enclave.mode]

    # -- SDK-path cost hooks (charged by the runtimes) -----------------------------

    def charge_ecall_warmup(self, enclave: Enclave) -> None:
        self.cpu.cycles.charge(
            costs.TLB_WARMUP_EXTRA[self._mode_key(enclave)], "tlb-warmup")

    def charge_ocall_warmup(self, enclave: Enclave) -> None:
        self.cpu.cycles.charge(
            costs.OCALL_WARMUP_EXTRA[self._mode_key(enclave)], "tlb-warmup")
