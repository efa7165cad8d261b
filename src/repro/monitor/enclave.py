"""The in-monitor representation of one enclave.

RustMonitor owns everything in here: the enclave's page table (built from
monitor-pool frames), the committed-page map, the TCS/SSA structures, the
measurement log, and the marshalling-buffer registration.  The primary OS
never sees any of it (Sec 3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import EnclaveError, PageFault, SecurityViolation
from repro.hw.paging import PageTable, PageTableFlags
from repro.hw.phys import PAGE_SIZE
from repro.monitor.measurement import MeasurementLog
from repro.monitor.structs import (EnclaveConfig, EnclaveMode, PagePerm,
                                   PageType, Secs, SsaFrame, Tcs)
from repro.monitor.world import SwitchProfile

# Default ELRANGE base: high in the canonical lower half, far from the
# primary OS's process mappings.
ENCLAVE_BASE_VA = 0x2000_0000_0000


def _flags_for(perms: PagePerm) -> PageTableFlags:
    flags = PageTableFlags.PRESENT | PageTableFlags.USER
    if perms & PagePerm.W:
        flags |= PageTableFlags.WRITABLE
    if not perms & PagePerm.X:
        flags |= PageTableFlags.NX
    return flags


# Every R/W/X combination, so the hot commit path does no enum arithmetic.
_PERM_FLAGS = {PagePerm(bits): _flags_for(PagePerm(bits)) for bits in range(8)}


def perms_to_flags(perms: PagePerm) -> PageTableFlags:
    """Translate RWX page permissions into PTE flags."""
    return _PERM_FLAGS[perms]


class EnclaveState(enum.Enum):
    """Enclave lifecycle (mirrors SGX: ECREATE -> EADD* -> EINIT -> run)."""

    CREATED = "created"          # after ECREATE, accepting EADDs
    INITIALIZED = "initialized"  # after EINIT, runnable
    DESTROYED = "destroyed"      # after EREMOVE


@dataclass
class CommittedPage:
    """One enclave page: where it lives and what it is."""

    offset: int                  # byte offset within ELRANGE
    pa: int                      # host-physical frame
    page_type: PageType
    perms: PagePerm


@dataclass
class ReservedRegion:
    """An ELRANGE region that demand-commits on first touch (EDMM-style)."""

    start_va: int
    end_va: int
    perms: PagePerm

    def contains(self, va: int) -> bool:
        return self.start_va <= va < self.end_va


@dataclass
class MarshallingBuffer:
    """The shared parameter-passing window (Sec 3.2 / 5.3).

    Lives in the application's *normal* memory; pinned and pre-populated
    by the uRTS, then registered with RustMonitor at EINIT, which maps it
    into the enclave's page table after checking it lies entirely outside
    ELRANGE.
    """

    base_va: int
    size: int
    frames: list[int]            # pinned normal-memory frames, in order

    def contains(self, va: int, size: int = 1) -> bool:
        return self.base_va <= va and va + size <= self.base_va + self.size


class Enclave:
    """Monitor-side enclave state."""

    def __init__(self, enclave_id: int, config: EnclaveConfig, *,
                 base: int, size: int, page_table: PageTable) -> None:
        from repro.monitor.structs import ATTR_DEBUG
        attributes = ATTR_DEBUG if config.debug else 0
        self.secs = Secs(enclave_id=enclave_id, base=base, size=size,
                         mode=config.mode, attributes=attributes)
        self.config = config
        self.state = EnclaveState.CREATED
        self.pt = page_table
        self.pages: dict[int, CommittedPage] = {}     # keyed by offset
        self.reserved: list[ReservedRegion] = []
        self.tcs_list: list[Tcs] = []
        self.measurement = MeasurementLog()
        self.measurement.ecreate(base, size, config.mode.value, attributes)
        self.marshalling: MarshallingBuffer | None = None
        # Exception handler the enclave registered (two-phase handling for
        # GU/HU; direct IDT dispatch for P).
        self.exception_handler = None
        # P-Enclave bookkeeping: which vectors are white-listed in-enclave.
        self.whitelisted_vectors: set[int] = set()
        # The AEP (asynchronous exit pointer) registered at EENTER; EEXIT
        # may only return there (enclave-malware defense, Sec 6).
        self.registered_aep: int | None = None
        self.interrupted_tcs: Tcs | None = None
        # What its world switches charge and do, resolved once from the
        # live cost tables (see repro.monitor.world.SwitchProfile).
        self.switch = SwitchProfile(config.mode)

    # -- identity -----------------------------------------------------------

    @property
    def enclave_id(self) -> int:
        return self.secs.enclave_id

    @property
    def mode(self) -> EnclaveMode:
        return self.secs.mode

    @property
    def mrenclave(self) -> bytes:
        if not self.measurement.finalized:
            raise EnclaveError("enclave not initialized: no measurement yet")
        return self.secs.mrenclave

    # -- state guards ---------------------------------------------------------

    def require_state(self, *states: EnclaveState) -> None:
        if self.state not in states:
            raise EnclaveError(
                f"enclave {self.enclave_id} is {self.state.value}, needs "
                f"{[s.value for s in states]}")

    # -- page management (called by RustMonitor only) ---------------------------

    def add_page(self, offset: int, pa: int, page_type: PageType,
                 perms: PagePerm, *, measure: bool, content: bytes) -> None:
        self.require_state(EnclaveState.CREATED)
        self._check_offset(offset)
        if offset in self.pages:
            raise EnclaveError(f"page at offset {offset:#x} already added")
        self.pages[offset] = CommittedPage(offset, pa, page_type, perms)
        self.pt.map(self.secs.base + offset, pa, perms_to_flags(perms))
        if measure:
            self.measurement.eadd(offset, page_type, perms, content)

    def commit_page(self, va: int, pa: int, perms: PagePerm) -> None:
        """Demand-commit a page at runtime (monitor page-fault path)."""
        self.require_state(EnclaveState.INITIALIZED)
        offset = va - self.secs.base
        self._check_offset(offset)
        self.pages[offset] = CommittedPage(offset, pa, PageType.REG, perms)
        self.pt.map(self.secs.base + offset, pa, perms_to_flags(perms))

    def reserve(self, start_va: int, size: int, perms: PagePerm) -> None:
        """Declare a demand-committed region (heap/stack growth)."""
        if not self.secs.contains(start_va, size):
            raise EnclaveError("reserved region outside ELRANGE")
        self.reserved.append(ReservedRegion(start_va, start_va + size, perms))

    def reserved_region_for(self, va: int) -> ReservedRegion | None:
        for region in self.reserved:
            if region.contains(va):
                return region
        return None

    def protect_page(self, va: int, perms: PagePerm) -> None:
        """Change an existing page's permissions (EMODPR/EMODPE path)."""
        offset = (va - self.secs.base) & ~(PAGE_SIZE - 1)
        page = self.pages.get(offset)
        if page is None:
            raise EnclaveError(f"no committed page at {va:#x}")
        page.perms = perms
        self.pt.protect(self.secs.base + offset, perms_to_flags(perms))

    def page_at(self, va: int) -> CommittedPage | None:
        offset = (va - self.secs.base) & ~(PAGE_SIZE - 1)
        return self.pages.get(offset)

    def _check_offset(self, offset: int) -> None:
        if offset % PAGE_SIZE:
            raise EnclaveError(f"unaligned page offset {offset:#x}")
        if not 0 <= offset < self.secs.size:
            raise EnclaveError(
                f"offset {offset:#x} outside ELRANGE of size "
                f"{self.secs.size:#x}")

    # -- marshalling buffer ------------------------------------------------------

    def register_marshalling_buffer(self, base_va: int, size: int,
                                    frames: list[int]) -> None:
        """Map the pinned buffer into the enclave's page table.

        "RustMonitor ensures the address range of the marshalling buffer
        is outside the enclave address range" (Sec 6) — the crafted-address
        attack this blocks is exercised by the security tests.
        """
        if base_va % PAGE_SIZE or size % PAGE_SIZE:
            raise EnclaveError("marshalling buffer must be page aligned")
        if len(frames) != size // PAGE_SIZE:
            raise EnclaveError("marshalling buffer frame list size mismatch")
        end = base_va + size
        if base_va < self.secs.base + self.secs.size and \
                end > self.secs.base:
            raise SecurityViolation(
                "marshalling buffer overlaps the enclave address range")
        from repro.hw.phys import OwnerKind
        for pa in frames:
            owner = self.pt.phys.owner_of(pa)
            if owner.kind is not OwnerKind.NORMAL:
                raise SecurityViolation(
                    f"marshalling buffer frame {pa:#x} is "
                    f"{owner.kind.value} memory, not pinned normal memory")
        for i, pa in enumerate(frames):
            self.pt.map(base_va + i * PAGE_SIZE, pa,
                        perms_to_flags(PagePerm.RW))
        self.marshalling = MarshallingBuffer(base_va, size, frames)

    # -- memory access (the enclave's own loads/stores) ----------------------------

    def translate(self, va: int, *, write: bool = False) -> int:
        """Translate an enclave virtual address through the enclave's PT.

        Anything not mapped there — i.e. anything that is neither enclave
        memory nor the marshalling buffer — faults.  This is what confines
        enclave malware (Sec 6).
        """
        return self.pt.translate(va, write=write, user=True).pa

    def accessible(self, va: int, size: int = 1, *, write: bool = False) -> bool:
        """Can the enclave touch [va, va+size)?  Only checks: sets no
        ACCESSED or DIRTY bit."""
        try:
            for page_va in range(va & ~(PAGE_SIZE - 1), va + size, PAGE_SIZE):
                self.pt.translate(page_va, write=write, user=True,
                                  set_accessed=False)
        except PageFault:
            return False
        return True

    # -- threads ------------------------------------------------------------------

    def add_tcs(self, entry_va: int, ssa_frames: int) -> Tcs:
        tcs = Tcs(index=len(self.tcs_list), entry_va=entry_va,
                  ssa=[SsaFrame() for _ in range(ssa_frames)])
        self.tcs_list.append(tcs)
        return tcs

    def acquire_tcs(self) -> Tcs:
        """Find a free TCS for an ECALL (one TCS per enclave thread)."""
        for tcs in self.tcs_list:
            if not tcs.busy:
                tcs.busy = True
                return tcs
        raise EnclaveError("all TCSs busy: out of enclave threads")

    def release_tcs(self, tcs: Tcs) -> None:
        tcs.busy = False
