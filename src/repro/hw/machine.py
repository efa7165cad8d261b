"""Machine assembly: one object owning all simulated hardware.

A :class:`Machine` corresponds to one physical server.  The default
configuration mirrors the paper's AMD test box scaled down: lazily
allocated physical memory (so multi-GB address spaces are cheap), a 2 GB
region reserved for RustMonitor + enclave memory, an 8 MB LLC, AMD-SME
memory encryption, and a TPM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw import costs
from repro.hw.cache import Llc
from repro.hw.cpu import Cpu
from repro.hw.cycles import CycleCounter
from repro.hw.interrupts import Idt, InterruptModel
from repro.hw.iommu import Iommu
from repro.hw.memenc import AmdSme, EncryptionEngine, IntelMee, NoEncryption
from repro.hw.phys import PAGE_SIZE, PhysicalMemory
from repro.hw.tlb import Tlb
from repro.hw.tpm import Tpm
from repro.telemetry import Telemetry

_ENGINES = {
    "none": NoEncryption,
    "amd-sme": AmdSme,
    "intel-mee": IntelMee,
}


@dataclass
class MachineConfig:
    """Hardware configuration knobs."""

    phys_size: int = 8 * 1024 * 1024 * 1024      # 8 GiB, lazily allocated
    reserved_base: int = 1 * 1024 * 1024 * 1024  # RustMonitor+EPC region base
    reserved_size: int = 2 * 1024 * 1024 * 1024  # grub cmdline reservation
    llc_size: int = costs.LLC_SIZE
    tlb_entries: int = costs.TLB_ENTRIES
    # Logical CPUs.  The paper's box has 128; the cost model only uses
    # this for TLB-shootdown IPIs, so the default of 1 keeps the
    # single-threaded microbenchmark calibration untouched.
    num_cpus: int = 1
    encryption: str = "amd-sme"                  # none | amd-sme | intel-mee
    tpm_seed: bytes = b"hyperenclave-reproduction"
    interrupt_interval_cycles: float = 400_000.0
    # Monitor-invariant sanitizer (repro.sanitizer): True/False forces it
    # on/off; None defers to the REPRO_SANITIZE environment variable.
    sanitize: bool | None = None

    def __post_init__(self) -> None:
        if self.encryption not in _ENGINES:
            raise ValueError(f"unknown encryption engine {self.encryption!r}")
        if self.reserved_base % PAGE_SIZE or self.reserved_size % PAGE_SIZE:
            raise ValueError("reserved region must be page aligned")
        if self.reserved_base + self.reserved_size > self.phys_size:
            raise ValueError("reserved region exceeds physical memory")
        if self.num_cpus < 1:
            raise ValueError("need at least one CPU")


class Machine:
    """One simulated server: CPU, memory, caches, TPM, IOMMU."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        self.cycles = CycleCounter()
        self.phys = PhysicalMemory(self.config.phys_size)
        self.tlb = Tlb(self.config.tlb_entries)
        self.cpu = Cpu(self.cycles, self.tlb)
        self.llc = Llc(self.config.llc_size)
        self.encryption: EncryptionEngine = _ENGINES[self.config.encryption]()
        self.tpm = Tpm(self.config.tpm_seed)
        self.iommu = Iommu(self.phys)
        self.idt = Idt()
        self.interrupts = InterruptModel(self.config.interrupt_interval_cycles)
        # The telemetry hub owns the trace ring; ``machine.trace`` stays
        # the raw-event surface existing callers/tests know.
        self.telemetry = Telemetry(self.cycles)
        self.trace = self.telemetry.ring
        self.telemetry.add_collector("tlb", self.tlb.stats)
        self.telemetry.add_collector("llc", self.llc.stats)
        self.telemetry.add_collector("trace", self.trace.stats)
        self.telemetry.add_collector(
            "encryption",
            lambda: {"engine": self.encryption.name,
                     **self.encryption.stats()})
        # Software layers (monitor, kernel) register state providers so
        # Machine.state_hash() folds their state too; dump providers give
        # the forensic bundles their one-shot deep dumps (page-table
        # walks are too expensive for per-checkpoint hashing).
        self.state_providers: dict[str, object] = {}
        self.dump_providers: dict[str, object] = {}
        # Attach the monitor-invariant sanitizer last, so its hooks see a
        # fully assembled machine.  Imported here: repro.sanitizer sits
        # above the hardware layer.
        from repro.sanitizer.runtime import Sanitizer, sanitize_enabled
        want = self.config.sanitize
        if want is None:
            want = sanitize_enabled()
        self.sanitizer = Sanitizer(self) if want else None
        # When a process-wide telemetry sink is active (python -m
        # repro.bench run|check|replay), every machine registers itself,
        # so no workload needs per-call-site capture plumbing; the sink
        # attaches its sampler, tracer and flight recorder.
        from repro.telemetry import sink as telemetry_sink
        active = telemetry_sink.current()
        if active is not None:
            active.auto_register(self.telemetry, machine=self)

    # -- state hashing -------------------------------------------------------

    def state_fingerprint(self) -> dict[str, str]:
        """Per-component state digests (the expanded form of state_hash).

        Folds the hardware (cycles, CPU context, physical-frame ownership
        and contents, TLB, TPM) plus whatever software layers registered
        via ``state_providers`` (monitor: enclaves, EPC, swap; kernel:
        processes, VMAs).  Comparing fingerprints names the component
        that diverged; comparing :meth:`state_hash` is one string.
        """
        from repro.hw import statehash
        parts = {
            "cycles": statehash.digest(self.cycles.total),
            "cpu": self.cpu.state_digest(),
            "phys": self.phys.state_digest(),
            "tlb": self.tlb.state_digest(),
            "tpm": self.tpm.state_digest(),
        }
        for name, provider in self.state_providers.items():
            parts[name] = statehash.digest(provider())
        return parts

    def state_hash(self) -> str:
        """One deterministic hash of the whole machine state."""
        from repro.hw import statehash
        return statehash.fold(self.state_fingerprint())

    def state_dump(self) -> dict:
        """Deep, human-readable state for forensic bundles (expensive)."""
        dump = {
            "cpu": {
                "mode": self.cpu.mode.value,
                "context": None if self.cpu.current is None else {
                    "name": self.cpu.current.name,
                    "mode": self.cpu.current.mode.value,
                    "gpt_root": self.cpu.current.gpt_root,
                    "npt_root": self.cpu.current.npt_root,
                    "host_pt_root": self.cpu.current.host_pt_root,
                    "asid": self.cpu.current.asid,
                    "regs": self.cpu.current.snapshot(),
                },
            },
            "tlb": self.tlb.entries_dump(),
        }
        for name, provider in self.dump_providers.items():
            dump[name] = provider()
        return dump

    def reboot(self) -> None:
        """Power cycle: PCRs reset, caches/TLB cold, cycle counter keeps going."""
        self.tpm.reboot()
        self.tlb.flush()
        self.llc.flush_all()
        self.encryption.reset()
        self.idt.clear()
        self.interrupts.reset()
