"""RustMonitor: hypercall surface and enclave lifecycle management.

The monitor is the only code that touches enclave page tables, the EPC
free-page pool, the measurement logs, K_root and the attestation key.
The primary OS reaches it exclusively through hypercalls (relayed by the
kernel module's ioctl interface), and enclaves through the emulated
ENCLU leaves and the page-fault path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashes import hmac_sha256, sha256
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, cached_keypair
from repro.errors import (EnclaveError, MonitorError, PageFault,
                          SecurityViolation, TpmError)
from repro.hw import costs
from repro.hw.machine import Machine
from repro.hw.paging import PageTable
from repro.hw.phys import (MONITOR, PAGE_SHIFT, PAGE_SIZE, FramePool,
                           OwnerKind, enclave_owner)
from repro.monitor import attestation as att
from repro.monitor.enclave import ENCLAVE_BASE_VA, Enclave, EnclaveState
from repro.monitor.ranges import RangeSet
from repro.monitor.sealing import KeyDerivation, SealPolicy
from repro.monitor.structs import (EnclaveConfig, EnclaveMode, PagePerm,
                                   PageType, Sigstruct)
from repro.monitor.swap import (EnclaveSwapState, UntrustedSwapStore,
                                derive_swap_key, swap_in_page,
                                swap_out_page)
from repro.monitor.world import WorldSwitchEngine
from repro.sanitizer import invariants
from repro.sanitizer.violation import SAN_OWNER

FLOOD_DIGEST = sha256(b"HYPERENCLAVE-PCR-FLOOD")


@dataclass(frozen=True)
class LocalReport:
    """An EREPORT result for local attestation, MACed with the target's
    report key."""

    mrenclave: bytes
    mrsigner: bytes
    report_data: bytes
    target_mrenclave: bytes
    mac: bytes

    def payload(self) -> bytes:
        return (b"LOCAL-REPORT" + self.mrenclave + self.mrsigner
                + sha256(self.report_data) + self.target_mrenclave)


class RustMonitor:
    """The security monitor (monitor mode, VMX root ring 0)."""

    def __init__(self, machine: Machine, *,
                 monitor_private_size: int | None = None) -> None:
        self.machine = machine
        cfg = machine.config
        if monitor_private_size is None:
            # An eighth of the reservation, capped at 256 MB, for the
            # monitor's own structures; the rest is enclave memory (EPC).
            monitor_private_size = min(256 * 1024 * 1024,
                                       cfg.reserved_size // 8)
        if monitor_private_size >= cfg.reserved_size:
            raise MonitorError("monitor private region exceeds reservation")

        # The invariant sanitizer, when REPRO_SANITIZE=1 (None otherwise).
        self._sanitizer = machine.sanitizer
        if self._sanitizer is not None:
            self._sanitizer.on_monitor_boot()

        # Claim the grub-reserved physical region (Sec 5.1).
        machine.phys.set_owner(cfg.reserved_base, MONITOR,
                               npages=cfg.reserved_size // PAGE_SIZE)
        self.monitor_pool = FramePool(machine.phys, cfg.reserved_base,
                                      monitor_private_size, MONITOR)
        self.epc_pool = FramePool(machine.phys,
                                  cfg.reserved_base + monitor_private_size,
                                  cfg.reserved_size - monitor_private_size,
                                  MONITOR)
        self.epc_size = cfg.reserved_size - monitor_private_size

        # Normal VM NPT (huge-page interval set): all of memory except the
        # reservation (R-1).
        self.normal_npt = RangeSet()
        self.normal_npt.add(0, cfg.phys_size)
        self.normal_npt.remove(cfg.reserved_base,
                               cfg.reserved_base + cfg.reserved_size)
        # Frames that passed check_normal_access whole: inside one NPT
        # range, owner neither MONITOR nor ENCLAVE.  Valid while the
        # owner epoch and the NPT version it was filled under hold.
        self._normal_frames: set[int] = set()
        self._normal_frames_epoch = -1
        self._normal_frames_npt = -1

        self.world = WorldSwitchEngine(machine.cpu, machine.tlb,
                                       machine.telemetry)
        self.enclaves: dict[int, Enclave] = {}
        self._next_enclave_id = 1
        self._keys: KeyDerivation | None = None
        self._attestation_key: RsaKeyPair | None = None
        self.os_demoted = False
        self.hypercalls = 0
        self.tlb_shootdowns = 0
        # Page-swap machinery: the backing store lives in untrusted
        # normal memory (the OS provides it); the per-enclave swap state
        # (keys, versions) stays in monitor memory.
        self.swap_store = UntrustedSwapStore()
        self._swap_states: dict[int, EnclaveSwapState] = {}
        # (victim_enclave_id, aggressor_enclave_id) -> frames reclaimed
        # under pool pressure.  Observability bookkeeping only (the
        # epc_pressure figures and perfbench read it): kept out of
        # _state_for_hash, so the state-hash baselines do not depend on
        # it.
        self.epc_steals: dict[tuple[int, int], int] = {}

        # Fold monitor state into Machine.state_hash() checkpoints, and
        # give forensic bundles a deep page-table dump on demand.
        machine.state_providers["monitor"] = self._state_for_hash
        machine.dump_providers["monitor"] = self._state_dump

    def _state_for_hash(self) -> dict:
        """Monitor-owned state for ``Machine.state_fingerprint()``.

        Page-table *contents* live in physical frames already hashed by
        the hardware layer; here we fold the metadata that lives in
        Python objects: enclave lifecycles, EPC/monitor pool free lists,
        the normal VM's NPT ranges, and swap versions.
        """
        enclaves = {}
        for eid, enc in self.enclaves.items():
            enclaves[eid] = {
                "state": enc.state,
                "pt_root": enc.pt.root_pa,
                "asid": enc.pt.asid,
                "pages": {offset: (p.pa, p.page_type, p.perms)
                          for offset, p in enc.pages.items()},
                "tcs": len(enc.tcs_list),
                "vectors": enc.whitelisted_vectors,
            }
        swaps = {}
        for eid, state in self._swap_states.items():
            swaps[eid] = {
                "version": state._version,
                "records": {va: (r.token, r.version, r.perms)
                            for va, r in state.records.items()},
            }
        return {
            "enclaves": enclaves,
            "next_enclave_id": self._next_enclave_id,
            "hypercalls": self.hypercalls,
            "os_demoted": self.os_demoted,
            "epc_free": self.epc_pool.state_digest(),
            "monitor_free": self.monitor_pool.state_digest(),
            "normal_npt": self.normal_npt.ranges(),
            "swap": swaps,
        }

    def _state_dump(self) -> dict:
        """Deep monitor state for forensic bundles (full PT walks)."""
        enclaves = {}
        for eid, enc in self.enclaves.items():
            enclaves[str(eid)] = {
                "state": enc.state.value,
                "mode": enc.config.mode.value,
                "base": enc.secs.base,
                "size": enc.secs.size,
                "pt_root": enc.pt.root_pa,
                "asid": enc.pt.asid,
                "committed_pages": len(enc.pages),
                "page_table": [
                    {"va": va, "pa": pa, "flags": int(flags)}
                    for va, pa, flags in enc.pt.mappings()],
            }
        return {
            "enclaves": enclaves,
            "hypercalls": self.hypercalls,
            "os_demoted": self.os_demoted,
            "epc_free_pages": self.epc_pool.free_pages,
            "monitor_free_pages": self.monitor_pool.free_pages,
            "swapped_pages": {
                str(eid): sorted(state.records)
                for eid, state in self._swap_states.items()},
        }

    # ------------------------------------------------------------------ boot --

    def initialize_keys(self, sealed_root_key: bytes | None = None) -> bytes:  # repro-lint: disable=SC003 -- boot-time key derivation before any guest exists; no hypercall round-trip to charge
        """Create or unseal K_root, derive the attestation key, extend the
        hapk into the TPM, and flood the boot PCRs (Sec 3.3).

        Returns the sealed K_root blob to be stored on (untrusted) disk.
        """
        tpm = self.machine.tpm
        if sealed_root_key is None:
            k_root = tpm.random(32)
        else:
            k_root = tpm.unseal(sealed_root_key)   # fails if PCRs changed
        sealed = tpm.seal(k_root, att.BOOT_PCRS)
        self._keys = KeyDerivation(k_root)
        self._attestation_key = cached_keypair(
            self._keys.attestation_key_seed())
        tpm.extend(att.PCR_HAPK, self.hapk.fingerprint())
        # Flood so the demoted OS can never reproduce the unseal policy.
        for idx in att.BOOT_PCRS:
            tpm.extend(idx, FLOOD_DIGEST)
        return sealed

    def demote_primary_os(self) -> None:  # repro-lint: disable=SC003 -- one-shot boot transition before any measured op sequence starts
        """Drop the primary OS into the normal VM and arm DMA protection."""
        self.machine.iommu.enable()
        self.os_demoted = True

    @property
    def hapk(self) -> RsaPublicKey:
        if self._attestation_key is None:
            raise MonitorError("keys not initialized")
        return self._attestation_key.public

    @property
    def keys(self) -> KeyDerivation:
        if self._keys is None:
            raise MonitorError("keys not initialized")
        return self._keys

    # --------------------------------------------------------------- helpers --

    def _charge_hypercall(self, op: str) -> None:
        self.hypercalls += 1
        tel = self.machine.telemetry
        with tel.site("hypercall", op=op):
            self.machine.cycles.charge(costs.HYPERCALL_ROUNDTRIP, "hypercall")
        tel.count("monitor", "hypercalls", op=op)

    def _enclave(self, enclave_id: int) -> Enclave:
        enclave = self.enclaves.get(enclave_id)
        if enclave is None:
            raise EnclaveError(f"no such enclave {enclave_id}")
        return enclave

    def _sanitize_op(self, op: str) -> None:
        """Attribute subsequent frame transitions to ``op``."""
        if self._sanitizer is not None:
            self._sanitizer.set_op(op)

    def _sanitize_check(self, op: str, enclave_id: int | None = None,
                        page_va: int | None = None) -> None:
        """Run the after-op invariant checks (no-op when not sanitizing)."""
        if self._sanitizer is not None:
            self._sanitizer.after_monitor_op(self, op, enclave_id, page_va)

    def _tlb_shootdown(self, enclave_id: int, page_va: int) -> None:
        """Invalidate one page everywhere it may be cached.

        On a single CPU this is a local INVLPG; with more CPUs the
        monitor IPIs every other core and waits for acknowledgements —
        the cost that makes frequent permission flips expensive on big
        boxes (and why P-Enclaves managing their own single-vCPU page
        table win the GC scenario).
        """
        self.machine.tlb.invlpg(enclave_id, page_va)
        self.tlb_shootdowns += 1
        remote = self.machine.config.num_cpus - 1
        if remote > 0:
            with self.machine.telemetry.site("tlb_shootdown"):
                self.machine.cycles.charge(
                    costs.IPI_BASE_CYCLES + remote * costs.IPI_PER_CPU_CYCLES,
                    "tlb-shootdown")

    def allow_dma_device(self, device: str) -> None:
        """Grant a device DMA windows over normal memory only (R-3)."""
        self._charge_hypercall("allow_dma_device")
        for start, end in self.normal_npt.ranges():
            self.machine.iommu.allow(device, start, end - start)

    # ----------------------------------------------------- normal VM policing --

    def check_normal_access(self, pa: int, length: int = 1) -> None:  # repro-lint: disable=SC003 -- models the hardware NPT walk, free in the monitor's cycle model; the caller's memory touch pays the cost
        """R-1: normal-mode software may not touch reserved/enclave frames.

        The hardware analogue is an NPT violation; the OS simulation calls
        this on every physical access it performs for itself or apps.  A
        frame that passes whole is remembered until any ``set_owner`` or
        any change to ``normal_npt``, so the next access inside it costs
        one set lookup; every other access takes the full check.
        """
        phys = self.machine.phys
        npt = self.normal_npt
        frames = self._normal_frames
        if phys.owner_epoch != self._normal_frames_epoch \
                or npt.version != self._normal_frames_npt:
            frames.clear()
            self._normal_frames_epoch = phys.owner_epoch
            self._normal_frames_npt = npt.version
        elif pa >> PAGE_SHIFT in frames \
                and 0 < length <= PAGE_SIZE - (pa & (PAGE_SIZE - 1)):
            return
        if not npt.contains_range(pa, pa + length):
            raise SecurityViolation(
                f"NPT violation: normal-mode access to protected physical "
                f"memory at {pa:#x}")
        owner = phys.owner_of(pa)
        if owner.kind in (OwnerKind.MONITOR, OwnerKind.ENCLAVE):
            raise SecurityViolation(
                f"normal-mode access to {owner.kind.value} frame at {pa:#x}")
        base = pa & ~(PAGE_SIZE - 1)
        if npt.contains_range(base, base + PAGE_SIZE):
            frames.add(pa >> PAGE_SHIFT)

    # -------------------------------------------------- enclave lifecycle ------

    def ecreate(self, config: EnclaveConfig, *, size: int,
                base: int = ENCLAVE_BASE_VA) -> int:
        """Emulated ECREATE: allocate the enclave and its page table."""
        self._charge_hypercall("ecreate")
        self._sanitize_op("ecreate")
        if size <= 0 or size % PAGE_SIZE:
            raise EnclaveError("ELRANGE size must be page aligned")
        enclave_id = self._next_enclave_id
        self._next_enclave_id += 1
        pt = PageTable(self.machine.phys, self.monitor_pool.alloc,
                       self.monitor_pool.free,
                       stats=self.machine.telemetry.paging_stats("enclave"),
                       asid=enclave_id)
        enclave = Enclave(enclave_id, config, base=base, size=size,
                          page_table=pt)
        self.enclaves[enclave_id] = enclave
        self._sanitize_check("ecreate", enclave_id)
        return enclave_id

    def eadd(self, enclave_id: int, offset: int, content: bytes = b"", *,
             page_type: PageType = PageType.REG,
             perms: PagePerm = PagePerm.RW, measure: bool = True) -> None:
        """Emulated EADD: commit one measured page from the EPC pool."""
        self._charge_hypercall("eadd")
        self._sanitize_op("eadd")
        enclave = self._enclave(enclave_id)
        enclave.require_state(EnclaveState.CREATED)
        if len(content) > PAGE_SIZE:
            raise EnclaveError("EADD content exceeds one page")
        pa = self.epc_pool.alloc(enclave_owner(enclave_id))
        if content:
            self.machine.phys.write(pa, content)
        enclave.add_page(offset, pa, page_type, perms, measure=measure,
                         content=content)
        self._sanitize_check("eadd", enclave_id)

    def add_tcs(self, enclave_id: int, offset: int, entry_va: int) -> int:
        """Add a TCS page plus its SSA frames; returns the TCS index."""
        enclave = self._enclave(enclave_id)
        self.eadd(enclave_id, offset, page_type=PageType.TCS,
                  perms=PagePerm.RW)
        tcs = enclave.add_tcs(entry_va, enclave.config.ssa_frames_per_tcs)
        return tcs.index

    def reserve_region(self, enclave_id: int, start_va: int, size: int,
                       perms: PagePerm = PagePerm.RW) -> None:
        """Declare a demand-committed region (EDMM: on-demand heap/stack)."""
        self._charge_hypercall("reserve_region")
        self._enclave(enclave_id).reserve(start_va, size, perms)

    def einit(self, enclave_id: int, sigstruct: Sigstruct, *,
              marshalling: tuple[int, int, list[int]] | None = None) -> bytes:
        """Emulated EINIT: verify SIGSTRUCT, finalize the measurement, and
        register the marshalling buffer.  Returns MRENCLAVE."""
        self._charge_hypercall("einit")
        enclave = self._enclave(enclave_id)
        enclave.require_state(EnclaveState.CREATED)
        if not sigstruct.verify():
            raise SecurityViolation("SIGSTRUCT signature invalid")
        mrenclave = enclave.measurement.finalize()
        if mrenclave != sigstruct.enclave_hash:
            raise SecurityViolation(
                "enclave measurement does not match SIGSTRUCT: the loaded "
                "image differs from what the vendor signed")
        enclave.secs.mrenclave = mrenclave
        enclave.secs.mrsigner = sigstruct.mrsigner()
        enclave.secs.isv_prod_id = sigstruct.isv_prod_id
        enclave.secs.isv_svn = sigstruct.isv_svn

        if marshalling is not None:
            base_va, size, frames = marshalling
            for pa in frames:
                owner = self.machine.phys.owner_of(pa)
                if owner.kind is not OwnerKind.NORMAL:
                    raise SecurityViolation(
                        "marshalling buffer frames must be normal memory")
            enclave.register_marshalling_buffer(base_va, size, frames)

        enclave.state = EnclaveState.INITIALIZED
        if self._sanitizer is not None:
            self._sanitizer.on_einit(enclave)
        self._sanitize_check("einit", enclave_id)
        return mrenclave

    def eremove(self, enclave_id: int) -> None:
        """Tear the enclave down; scrub and free every page."""
        self._charge_hypercall("eremove")
        self._sanitize_op("eremove")
        enclave = self._enclave(enclave_id)
        for page in enclave.pages.values():
            self.epc_pool.free(page.pa)
            self._assert_frame_freed(page.pa, "eremove")
        enclave.pages.clear()
        enclave.pt.destroy()
        enclave.state = EnclaveState.DESTROYED
        # Drop any swapped-out pages: their keys die with the enclave.
        swap_state = self._swap_states.pop(enclave_id, None)
        if swap_state is not None:
            for record in swap_state.records.values():
                self.swap_store.drop(record.token)
        self.machine.tlb.flush()
        del self.enclaves[enclave_id]
        if self._sanitizer is not None:
            self._sanitizer.on_enclave_removed(enclave_id)
        self._sanitize_check("eremove")

    def _assert_frame_freed(self, pa: int, op: str) -> None:
        """A just-released frame must be back in the free pool."""
        if self.machine.phys.owner_of(pa).kind is not OwnerKind.FREE:
            invariants.fail(
                self.machine, self._sanitizer, SAN_OWNER,
                f"{op}: frame {pa:#x} was released but is still owned by "
                f"{self.machine.phys.owner_of(pa).kind.value}",
                frame=pa // PAGE_SIZE)

    # ----------------------------------------------------------- runtime ------

    def handle_enclave_page_fault(self, enclave_id: int, va: int, *,
                                  write: bool = False) -> None:
        """The monitor-owned page-fault path (Sec 3.2).

        Demand-commits reserved regions from the EPC free list; anything
        else is re-raised to the enclave as a real fault.
        """
        enclave = self._enclave(enclave_id)
        enclave.require_state(EnclaveState.INITIALIZED)
        self._sanitize_op("page_fault")
        with self.machine.telemetry.site("page_fault", enclave=enclave_id,
                                         va=va):
            state = self._swap_states.get(enclave_id)
            if state is not None and \
                    (va & ~(PAGE_SIZE - 1)) in state.records:
                swap_in_page(self, enclave, state, self.swap_store, va)
                self._sanitize_check("page_fault", enclave_id, va)
                return
            region = enclave.reserved_region_for(va)
            if region is not None and enclave.page_at(va) is None:
                if enclave.mode is EnclaveMode.SGX:
                    # The SGX2 EDMM path: AEX out, driver EAUG,
                    # ERESUME, then the enclave must EACCEPT the
                    # page (Sec 3.2).
                    self.machine.cpu.charge_steps(
                        costs.AEX_STEPS["sgx"], "edmm-sgx2")
                    self.machine.cycles.charge(
                        costs.SGX2_EDMM_DRIVER_CYCLES, "edmm-sgx2")
                    self.machine.cpu.charge_steps(
                        costs.ERESUME_STEPS["sgx"], "edmm-sgx2")
                    self.machine.cycles.charge(
                        costs.SGX2_EACCEPT_CYCLES, "edmm-sgx2")
                else:
                    # HyperEnclave: the trusted monitor commits the
                    # page.
                    self.machine.cpu.charge_steps(
                        costs.DEMAND_PAGING_PF_STEPS, "demand-paging")
                pa = self._alloc_epc_frame(enclave_id)
                enclave.commit_page(va & ~(PAGE_SIZE - 1), pa,
                                    region.perms)
                self._sanitize_check("page_fault", enclave_id, va)
                return
            raise PageFault(va, write=write, present=enclave.page_at(va)
                            is not None)

    def enclave_mprotect(self, enclave_id: int, va: int, npages: int,
                         perms: PagePerm) -> None:
        """Permission-change hypercall for GU/HU enclaves (Sec 3.2):
        update the monitor-held page table and shoot down the TLB.

        On the SGX2 baseline the same operation is an OCALL to the driver
        (EMODPR) followed by an in-enclave EACCEPT per page."""
        enclave = self._enclave(enclave_id)
        if enclave.mode is EnclaveMode.SGX:
            self.machine.cycles.charge(costs.ocall_expected("sgx"),
                                       "edmm-sgx2")
            self.machine.cycles.charge(costs.SGX2_EDMM_DRIVER_CYCLES,
                                       "edmm-sgx2")
            self.machine.cycles.charge(npages * costs.SGX2_EACCEPT_CYCLES,
                                       "edmm-sgx2")
        else:
            self._charge_hypercall("enclave_mprotect")
        self._sanitize_op("enclave_mprotect")
        for i in range(npages):
            page_va = va + i * PAGE_SIZE
            enclave.protect_page(page_va, perms)
            self.machine.cycles.charge(300, "pte-update")
            self._tlb_shootdown(enclave_id, page_va)
        self._sanitize_check("enclave_mprotect", enclave_id)

    def enclave_trim(self, enclave_id: int, va: int, npages: int) -> int:
        """EDMM page removal: scrub and return pages to the EPC pool.

        Returns the number of pages actually trimmed.  On HyperEnclave
        this is one hypercall; the SGX2 baseline pays the driver OCALL +
        per-page EACCEPT handshake (ETRACK/EREMOVE flow)."""
        enclave = self._enclave(enclave_id)
        enclave.require_state(EnclaveState.INITIALIZED)
        if enclave.mode is EnclaveMode.SGX:
            self.machine.cycles.charge(costs.ocall_expected("sgx"),
                                       "edmm-sgx2")
            self.machine.cycles.charge(costs.SGX2_EDMM_DRIVER_CYCLES,
                                       "edmm-sgx2")
        else:
            self._charge_hypercall("enclave_trim")
        self._sanitize_op("enclave_trim")
        trimmed = 0
        for i in range(npages):
            page_va = (va + i * PAGE_SIZE) & ~(PAGE_SIZE - 1)
            page = enclave.page_at(page_va)
            if page is None:
                continue
            enclave.pt.unmap(page_va)
            self.epc_pool.free(page.pa)
            self._assert_frame_freed(page.pa, "enclave_trim")
            del enclave.pages[page.offset]
            self._tlb_shootdown(enclave_id, page_va)
            self.machine.cycles.charge(300, "pte-update")
            if enclave.mode is EnclaveMode.SGX:
                self.machine.cycles.charge(costs.SGX2_EACCEPT_CYCLES,
                                           "edmm-sgx2")
            trimmed += 1
        self._sanitize_check("enclave_trim", enclave_id)
        return trimmed

    # ------------------------------------------------------- verification ------

    def audit_invariants(self) -> None:  # repro-lint: disable=SC003 -- verification harness outside the guest cycle model, never called on a measured path
        """Check the monitor's global security invariants.

        The paper reports formal verification of RustMonitor as work in
        progress; this runtime auditor checks the properties that
        verification would prove, over the live state:

        I-1  every frame an enclave's page table maps is either owned by
             that enclave or is a registered marshalling-buffer frame;
        I-2  no two enclaves map the same physical frame (except nothing:
             marshalling buffers are per-enclave too);
        I-3  the normal VM's NPT never covers monitor/enclave frames;
        I-4  every committed enclave page is inside its ELRANGE and
             owned by the right enclave.

        The actual checkers live in :mod:`repro.sanitizer.invariants` so
        the auditor and the REPRO_SANITIZE=1 runtime sanitizer are one
        source of truth.  With the sanitizer attached, this additionally
        audits the shadow ownership model, the pending-TLB-shootdown set,
        swap version records, and frozen measurements.
        """
        invariants.audit_monitor(self)

    # ------------------------------------------------------- attestation -------

    def ereport(self, enclave_id: int, report_data: bytes,
                target_mrenclave: bytes) -> LocalReport:
        """Emulated EREPORT: a local report MACed with the *target*'s
        report key, so only the target enclave can verify it."""
        self._charge_hypercall("ereport")
        enclave = self._enclave(enclave_id)
        enclave.require_state(EnclaveState.INITIALIZED)
        report = LocalReport(
            mrenclave=enclave.secs.mrenclave,
            mrsigner=enclave.secs.mrsigner,
            report_data=report_data,
            target_mrenclave=target_mrenclave,
            mac=b"")
        mac = hmac_sha256(self.keys.report_key(mrenclave=target_mrenclave),
                          report.payload())
        return LocalReport(report.mrenclave, report.mrsigner,
                           report.report_data, report.target_mrenclave, mac)

    def verify_local_report(self, verifier_enclave_id: int,
                            report: LocalReport) -> bool:
        """The target side of local attestation (EGETKEY(REPORT) + CMAC)."""
        self._charge_hypercall("verify_local_report")
        verifier = self._enclave(verifier_enclave_id)
        if report.target_mrenclave != verifier.secs.mrenclave:
            return False
        key = self.keys.report_key(mrenclave=verifier.secs.mrenclave)
        return hmac_sha256(key, report.payload()) == report.mac

    def egetkey(self, enclave_id: int, *,
                policy: SealPolicy = SealPolicy.MRENCLAVE) -> bytes:
        """Emulated EGETKEY: the enclave's sealing key."""
        self._charge_hypercall("egetkey")
        enclave = self._enclave(enclave_id)
        enclave.require_state(EnclaveState.INITIALIZED)
        return self.keys.seal_key(mrenclave=enclave.secs.mrenclave,
                                  mrsigner=enclave.secs.mrsigner,
                                  policy=policy,
                                  isv_svn=enclave.secs.isv_svn)

    # ----------------------------------------------------------- page swap ------

    def _swap_state(self, enclave: Enclave) -> EnclaveSwapState:
        state = self._swap_states.get(enclave.enclave_id)
        if state is None:
            if not enclave.secs.mrenclave:
                raise MonitorError("swap before EINIT")
            state = EnclaveSwapState(
                derive_swap_key(self.keys, enclave.secs.mrenclave))
            self._swap_states[enclave.enclave_id] = state
        return state

    def swap_out(self, enclave_id: int, va: int, npages: int = 1) -> int:
        """Evict committed enclave pages to the untrusted backing store.

        Returns the number of pages evicted.  The enclave's next touch of
        an evicted page faults and transparently swaps it back in.
        """
        self._charge_hypercall("swap_out")
        self._sanitize_op("swap_out")
        enclave = self._enclave(enclave_id)
        enclave.require_state(EnclaveState.INITIALIZED)
        state = self._swap_state(enclave)
        evicted = 0
        for i in range(npages):
            page_va = (va + i * PAGE_SIZE) & ~(PAGE_SIZE - 1)
            if enclave.page_at(page_va) is None:
                continue
            swap_out_page(self, enclave, state, self.swap_store, page_va)
            self._sanitize_check("swap_out", enclave_id, page_va)
            evicted += 1
        return evicted

    def _reclaim_one_page(self, for_enclave: int) -> bool:
        """Pool pressure: evict a REG page from the fullest enclave.

        ``for_enclave`` is the allocation that triggered the reclaim;
        the (victim, aggressor) pair is counted in ``epc_steals`` and,
        under a request tracer, in the open request's ``steals``.
        """
        candidates = [e for e in self.enclaves.values()
                      if e.state is EnclaveState.INITIALIZED]
        for enclave in sorted(candidates, key=lambda e: -len(e.pages)):
            state = self._swap_state(enclave)
            base, records = enclave.secs.base, state.records
            # The victim is the first REG page in commit order.
            for page in enclave.pages.values():
                page_va = base + page.offset
                if page.page_type is PageType.REG and \
                        page_va not in records:
                    break
            else:
                continue
            swap_out_page(self, enclave, state, self.swap_store, page_va)
            pair = (enclave.enclave_id, for_enclave)
            self.epc_steals[pair] = self.epc_steals.get(pair, 0) + 1
            self.machine.telemetry.count(
                "monitor", "epc.frames_stolen",
                victim=enclave.enclave_id, aggressor=for_enclave)
            tracer = self.machine.telemetry.requests
            if tracer is not None:
                tracer.note_steal(enclave.enclave_id, for_enclave)
            return True
        return False

    def _alloc_epc_frame(self, enclave_id: int) -> int:
        """Allocate from the pool, reclaiming via swap when exhausted.

        With nothing to reclaim, the pool's own ``PhysicalMemoryError``
        propagates.
        """
        if not self.epc_pool.free_pages:
            self._reclaim_one_page(enclave_id)
        return self.epc_pool.alloc(enclave_owner(enclave_id))

    def debug_read(self, enclave_id: int, va: int, size: int) -> bytes:
        """Debugger access to enclave memory (EDBGRD analog).

        Only DEBUG enclaves allow it — production enclaves are opaque to
        everything below the monitor, debugger included.
        """
        self._charge_hypercall("debug_read")
        enclave = self._enclave(enclave_id)
        if not enclave.secs.debug:
            raise SecurityViolation(
                f"EDBGRD on production enclave {enclave_id}: denied")
        out = bytearray()
        while size > 0:
            pa = enclave.pt.translate(va, user=False).pa
            chunk = min(size, PAGE_SIZE - (va % PAGE_SIZE))
            out += self.machine.phys.read(pa, chunk)
            va += chunk
            size -= chunk
        return bytes(out)

    # -- monotonic counters (anti-rollback for sealed state) --------------------

    def _nv_index_for(self, enclave: Enclave) -> int:
        # Keyed by enclave *identity*, so the counter survives reboots and
        # reloads of the same enclave.
        return int.from_bytes(enclave.secs.mrenclave[:8], "little")

    def monotonic_counter_increment(self, enclave_id: int) -> int:
        """Bump this enclave's TPM NV counter; returns the new value."""
        enclave = self._enclave(enclave_id)
        enclave.require_state(EnclaveState.INITIALIZED)
        self._charge_hypercall("monotonic_counter_increment")
        index = self._nv_index_for(enclave)
        tpm = self.machine.tpm
        try:
            return tpm.nv_counter_increment(index)
        except TpmError:
            tpm.nv_counter_define(index)     # first use: lazily defined
            return tpm.nv_counter_increment(index)

    def monotonic_counter_read(self, enclave_id: int) -> int:
        enclave = self._enclave(enclave_id)
        enclave.require_state(EnclaveState.INITIALIZED)
        self._charge_hypercall("monotonic_counter_read")
        index = self._nv_index_for(enclave)
        try:
            return self.machine.tpm.nv_counter_read(index)
        except TpmError:
            return 0                          # never sealed anything yet

    def quote(self, enclave_id: int, report_data: bytes,
              nonce: bytes) -> att.AttestationQuote:
        """Produce the full HyperEnclave quote (Figure 4)."""
        self._charge_hypercall("quote")
        enclave = self._enclave(enclave_id)
        enclave.require_state(EnclaveState.INITIALIZED)
        report = att.EnclaveReport(
            mrenclave=enclave.secs.mrenclave,
            mrsigner=enclave.secs.mrsigner,
            isv_prod_id=enclave.secs.isv_prod_id,
            isv_svn=enclave.secs.isv_svn,
            report_data=report_data,
            attributes=enclave.secs.attributes)
        if self._attestation_key is None:
            raise MonitorError("keys not initialized")
        ems = self._attestation_key.sign(report.payload())
        tpm_quote = self.machine.tpm.quote(nonce, att.QUOTE_PCRS)
        return att.AttestationQuote(report=report, ems=ems, hapk=self.hapk,
                                    tpm_quote=tpm_quote)
