"""World switches: entering and leaving enclaves (Sec 4, Figure 6).

The engine charges the calibrated per-step costs from
:mod:`repro.hw.costs` while performing the real side effects — TLB flushes
(full for GU/P, per-ASID for HU), CPU mode changes, SSA save/restore on
asynchronous exits, and the EEXIT target check that blocks the
enclave-malware jump attack (Sec 6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import EnclaveError, SecurityViolation
from repro.hw import costs
from repro.hw.cpu import Cpu, CpuMode
from repro.hw.tlb import Tlb
from repro.monitor.structs import EnclaveMode, Tcs
from repro.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.monitor.enclave import Enclave

_ENCLAVE_CPU_MODE = {
    EnclaveMode.GU: CpuMode.GUEST_USER,
    EnclaveMode.HU: CpuMode.HOST_USER,
    EnclaveMode.P: CpuMode.GUEST_KERNEL,
    EnclaveMode.SGX: CpuMode.HOST_USER,   # SGX enclaves run in user mode
}


class SwitchProfile:
    """Everything a world switch of one enclave needs, resolved once.

    An enclave's mode never changes, so its cost-table key, CPU mode,
    flush policy and summed step costs are fixed when it is created.
    They are read from the live :mod:`repro.hw.costs` tables then, not
    at import, so a cost table patched before the enclave exists still
    reaches it.  Step costs are integers: charging a stored sum is
    bit-identical to summing the step list on every switch.
    """

    __slots__ = ("mode", "cpu_mode", "flush", "eenter", "eexit", "aex",
                 "eresume", "ecall_warmup", "ocall_warmup")

    def __init__(self, mode: EnclaveMode) -> None:
        key = mode.value
        switch = costs.SWITCH_COSTS[key]
        self.mode = key
        self.cpu_mode = _ENCLAVE_CPU_MODE[mode]
        # HU switches CR3 with a fresh PCID and SGX tags enclave
        # translations; isolation comes from the ASID tags, so the
        # enclave's working set stays warm across switches.  GU/P run
        # under their own GPT+NPT: "TLBs are cleared upon world switches
        # to prevent illegal memory accesses using stale TLB entries"
        # (Sec 6).
        self.flush = mode not in (EnclaveMode.HU, EnclaveMode.SGX)
        self.eenter = switch.eenter_total
        self.eexit = switch.eexit_total
        self.aex = costs.steps_total(costs.AEX_STEPS[key])
        self.eresume = costs.steps_total(costs.ERESUME_STEPS[key])
        self.ecall_warmup = costs.TLB_WARMUP_EXTRA[key]
        self.ocall_warmup = costs.OCALL_WARMUP_EXTRA[key]


class WorldSwitchEngine:
    """Drives EENTER / EEXIT / AEX / ERESUME for one platform.

    Each enclave carries its own :class:`SwitchProfile`
    (``enclave.switch``), so no table here outlives an enclave.
    """

    def __init__(self, cpu: Cpu, tlb: Tlb, telemetry: Telemetry) -> None:
        self.cpu = cpu
        self.tlb = tlb
        self.telemetry = telemetry
        self.enters = 0
        self.exits = 0
        self.aexes = 0

    # -- synchronous transitions ------------------------------------------------

    def eenter(self, enclave: Enclave, tcs: Tcs, aep: int) -> None:
        """Enter the enclave on thread ``tcs``; ``aep`` is the only
        address EEXIT may later return to."""
        if tcs not in enclave.tcs_list:
            raise EnclaveError("TCS does not belong to this enclave")
        switch = enclave.switch
        mode = switch.mode
        with self.telemetry.site("eenter", enclave=enclave.enclave_id,
                                 mode=mode, tcs=tcs.index):
            self.cpu.cycles.charge(switch.eenter, f"eenter:{mode}")
            if switch.flush:
                self.tlb.flush()
            enclave.registered_aep = aep
            self.cpu.mode = switch.cpu_mode
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
        switch = enclave.switch
        mode = switch.mode
        with self.telemetry.site("eexit", enclave=enclave.enclave_id,
                                 mode=mode):
            self.cpu.cycles.charge(switch.eexit, f"eexit:{mode}")
            if switch.flush:
                self.tlb.flush()
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
        switch = enclave.switch
        mode = switch.mode
        with self.telemetry.site("aex", enclave=enclave.enclave_id,
                                 mode=mode, vector=vector):
            self.cpu.cycles.charge(switch.aex, f"aex:{mode}")
            if switch.flush:
                self.tlb.flush()
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
        switch = enclave.switch
        mode = switch.mode
        with self.telemetry.site("eresume", enclave=enclave.enclave_id,
                                 mode=mode):
            self.cpu.cycles.charge(switch.eresume, f"eresume:{mode}")
            if switch.flush:
                self.tlb.flush()
            self.cpu.mode = switch.cpu_mode

    # -- SDK-path cost hooks (charged by the runtimes) -----------------------------

    def charge_ecall_warmup(self, enclave: Enclave) -> None:
        self.cpu.cycles.charge(enclave.switch.ecall_warmup, "tlb-warmup")

    def charge_ocall_warmup(self, enclave: Enclave) -> None:
        self.cpu.cycles.charge(enclave.switch.ocall_warmup, "tlb-warmup")
