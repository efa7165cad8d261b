"""Top-level platform facade.

One :class:`TeePlatform` is one evaluation box, fully booted:

* ``TeePlatform.hyperenclave()`` — the paper's AMD server: SME memory
  encryption, measured late launch, RustMonitor, kernel module.  Enclaves
  load in any of the three operation modes.
* ``TeePlatform.intel_sgx()``    — the Intel comparison box: MEE memory
  encryption, 93 MB EPC with paging, SGX-calibrated switch costs.
  Enclaves load with ``EnclaveMode.SGX`` and no marshalling buffer.
* ``TeePlatform.native()``       — the no-protection baseline: same
  machine, no encryption, no enclaves; workloads run in a
  :class:`NativeContext` with plain memory costs.

Benchmarks build one of each and run identical workload code on all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.crypto.rsa import RsaKeyPair, cached_keypair
from repro.errors import SdkError
from repro.hw.machine import Machine, MachineConfig
from repro.hw.memmodel import MemorySubsystem
from repro.monitor.boot import BootResult, measured_late_launch
from repro.monitor.structs import EnclaveMode
from repro.osim.kernel import Kernel
from repro.osim.kmod import HyperEnclaveDevice
from repro.osim.net import Loopback
from repro.osim.vfs import Vfs
from repro.sdk.edger8r import generate_proxies
from repro.sdk.image import EnclaveImage
from repro.sdk.urts import EnclaveHandle, UntrustedRuntime

DEFAULT_VENDOR_KEY: RsaKeyPair = cached_keypair(b"repro-default-vendor-key")

# A scaled-down default machine: lazily-allocated frames make the address
# space cheap, but small pools keep pool setup fast.
_DEFAULT_CONFIG = MachineConfig(
    phys_size=8 * 1024 * 1024 * 1024,
    reserved_base=1 * 1024 * 1024 * 1024,
    reserved_size=2 * 1024 * 1024 * 1024,
)


class NativeContext:
    """The no-protection execution context (baseline runs).

    Mirrors the :class:`~repro.sdk.trts.EnclaveContext` surface the
    workloads use (malloc/touch/compute/random), with plain memory costs
    and no world switches.
    """

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        from repro.hw.memenc import NoEncryption
        self.mem = MemorySubsystem(machine.cycles, NoEncryption(),
                                   llc=machine.llc, tlb=machine.tlb,
                                   category="native-memory")
        self._heap_cursor = 0x5000_0000_0000
        self._heap_base = self._heap_cursor

    mode = None

    def malloc(self, size: int) -> int:
        if size <= 0:
            raise SdkError("malloc of non-positive size")
        size = (size + 15) & ~15
        va = self._heap_cursor
        self._heap_cursor += size
        return va

    def heap_reset(self) -> None:
        self._heap_cursor = self._heap_base

    def touch(self, addr: int, size: int = 8, *, write: bool = False) -> None:
        self.mem.touch(addr, size, write=write)

    def touch_sequential(self, addr: int, size: int, *,
                         write: bool = False) -> None:
        self.mem.touch_sequential(addr, size, write=write)

    def compute(self, ops: float) -> None:
        self.mem.compute(ops)

    def random(self, n: int) -> bytes:
        return self._machine.tpm.random(n)


@dataclass
class TeePlatform:
    """One booted evaluation platform."""

    kind: str
    machine: Machine
    kernel: Kernel
    loopback: Loopback
    os_vfs: Vfs
    boot: BootResult | None = None
    device: HyperEnclaveDevice | None = None
    process: object = None
    urts: UntrustedRuntime | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def hyperenclave(cls, config: MachineConfig | None = None,
                     **overrides) -> "TeePlatform":
        machine_config = replace(config or _DEFAULT_CONFIG,
                                 encryption="amd-sme", **overrides)
        return cls._boot("hyperenclave", machine_config)

    @classmethod
    def intel_sgx(cls, config: MachineConfig | None = None,
                  **overrides) -> "TeePlatform":
        machine_config = replace(config or _DEFAULT_CONFIG,
                                 encryption="intel-mee", **overrides)
        return cls._boot("sgx", machine_config)

    @classmethod
    def native(cls, config: MachineConfig | None = None,
               **overrides) -> "TeePlatform":
        machine_config = replace(config or _DEFAULT_CONFIG,
                                 encryption="none", **overrides)
        machine = Machine(machine_config)
        kernel = Kernel(machine, None)
        platform = cls(kind="native", machine=machine, kernel=kernel,
                       loopback=Loopback(machine),
                       os_vfs=Vfs(machine.cycles.charge))
        platform.process = kernel.spawn()
        return platform

    @classmethod
    def _boot(cls, kind: str, machine_config: MachineConfig) -> "TeePlatform":
        machine = Machine(machine_config)
        boot = measured_late_launch(machine)
        kernel = Kernel(machine, boot.monitor)
        device = HyperEnclaveDevice(kernel, boot.monitor)
        platform = cls(kind=kind, machine=machine, kernel=kernel,
                       loopback=Loopback(machine),
                       os_vfs=Vfs(machine.cycles.charge),
                       boot=boot, device=device)
        boot.monitor.allow_dma_device("nic")
        boot.monitor.allow_dma_device("disk")
        platform.process = kernel.spawn()
        platform.urts = UntrustedRuntime(machine, kernel, device,
                                         boot.monitor, platform.process)
        return platform

    # -- convenience -------------------------------------------------------------

    @property
    def monitor(self):
        return self.boot.monitor if self.boot else None

    @property
    def cycles(self):
        return self.machine.cycles

    def native_context(self) -> NativeContext:
        if self.kind != "native":
            raise SdkError("native_context() is for native platforms")
        return NativeContext(self.machine)

    def load_enclave(self, image: EnclaveImage,
                     signing_key: RsaKeyPair | None = None,
                     *, use_marshalling: bool | None = None) -> EnclaveHandle:
        """Load an enclave, adapting the image to this platform."""
        if self.urts is None:
            raise SdkError(f"platform {self.kind!r} cannot load enclaves")
        if self.kind == "sgx":
            if image.config.mode is not EnclaveMode.SGX:
                image = replace_image_mode(image, EnclaveMode.SGX)
            if use_marshalling is None:
                use_marshalling = False     # SGX has no marshalling buffer
        else:
            if image.config.mode is EnclaveMode.SGX:
                raise SdkError("SGX-mode image on a HyperEnclave platform")
            if use_marshalling is None:
                use_marshalling = True
        handle = self.urts.create_enclave(
            image, signing_key or DEFAULT_VENDOR_KEY,
            use_marshalling=use_marshalling)
        handle.proxies = generate_proxies(handle)
        return handle


def replace_image_mode(image: EnclaveImage, mode: EnclaveMode
                       ) -> EnclaveImage:
    """A copy of ``image`` configured for a different operation mode."""
    import dataclasses
    new_config = dataclasses.replace(image.config, mode=mode)
    return dataclasses.replace(image, config=new_config)
