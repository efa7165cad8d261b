"""The monitor-invariant checkers.

Single source of truth for the properties RustMonitor must uphold —
:meth:`~repro.monitor.rustmonitor.RustMonitor.audit_invariants` delegates
here, and the runtime sanitizer runs the scoped variants after every
monitor operation.  Message prefixes keep the legacy ``I-1``..``I-4``
names the paper-era auditor used, with a machine-checkable ``SAN-*`` code
on top (see :mod:`repro.sanitizer.violation`).

Every checker is read-only over simulated hardware: page tables are
walked through raw physical reads (never ``translate``), so no cycles are
charged, no TLB/LLC state moves, and no paging statistics shift.
"""

from __future__ import annotations

from repro.crypto.hashes import sha256
from repro.hw.paging import _ADDR_MASK, PageTableFlags
from repro.hw.phys import PAGE_SIZE, OwnerKind
from repro.sanitizer.shadow import render_owner
from repro.sanitizer.violation import (SAN_ALIAS, SAN_ELRANGE, SAN_MEASURE,
                                       SAN_NPT, SAN_OWNER, SAN_REACH,
                                       SAN_SHADOW, SAN_SWAP, SAN_TLB, SAN_WX,
                                       SanitizerViolation)

# Monitor ops whose after-op check walks the whole enclave (lifecycle
# changes) vs. ops hot enough that only the touched page is re-checked.
PAGE_SCOPED_OPS = frozenset({"page_fault", "swap_out", "swap_in"})


def fail(machine, san, code: str, message: str, *,
         frame: int | None = None) -> None:
    """Count the violation in the telemetry registry and raise it.

    When forensics are enabled (the active telemetry sink carries a
    flight recorder, or CI set ``REPRO_FORENSICS_DIR``) the violation
    also emits a forensic bundle capturing the machine state at the
    moment of failure; its path rides on the exception as
    ``forensic_bundle``.
    """
    machine.telemetry.registry.counter("sanitizer", "violations",
                                       code=code).inc()
    history = ()
    if san is not None:
        san.violations += 1
        if frame is not None:
            history = san.shadow.frame_history(frame)
    violation = SanitizerViolation(code, message, history)
    from repro.flightrec import forensics
    if forensics.emission_enabled():
        forensics.emit_for_machine(machine, violation)
    raise violation


# -- per-mapping checks: ownership (I-1), aliasing (I-2), W^X ---------------

def _check_mapping(monitor, san, eid: int, va: int, pa: int,
                   flags: PageTableFlags, ms_frames: set[int],
                   seen: dict[int, int] | None) -> None:
    machine = monitor.machine
    owner = machine.phys.owner_of(pa)
    frame = pa // PAGE_SIZE
    if pa in ms_frames:
        if owner.kind is not OwnerKind.NORMAL:
            fail(machine, san, SAN_OWNER,
                 f"I-1: enclave {eid} msbuf frame {pa:#x} is "
                 f"{owner.kind.value}", frame=frame)
        return
    if seen is not None:
        prev = seen.get(pa)
        if prev is not None and prev != eid:
            fail(machine, san, SAN_ALIAS,
                 f"I-2: frame {pa:#x} mapped by enclaves {prev} and {eid}",
                 frame=frame)
        seen[pa] = eid
    elif san is not None:
        mappers = san.shadow.frame_mappers.get(frame, ())
        for other in sorted(mappers):
            if other != eid:
                fail(machine, san, SAN_ALIAS,
                     f"I-2: frame {pa:#x} mapped by enclaves {other} "
                     f"and {eid}", frame=frame)
    if owner.kind is not OwnerKind.ENCLAVE or owner.enclave_id != eid:
        fail(machine, san, SAN_OWNER,
             f"I-1: enclave {eid} maps foreign frame {pa:#x} "
             f"({owner.kind.value})", frame=frame)
    if flags & PageTableFlags.WRITABLE and not flags & PageTableFlags.NX:
        fail(machine, san, SAN_WX,
             f"W^X: enclave {eid} mapping at {va:#x} -> {pa:#x} is both "
             f"writable and executable", frame=frame)


def check_enclave(monitor, enclave, san,
                  seen: dict[int, int] | None = None) -> None:
    """Walk one enclave's page table and committed-page map in full."""
    eid = enclave.enclave_id
    ms_frames = set(enclave.marshalling.frames) if enclave.marshalling \
        else set()
    for va, pa, flags in enclave.pt.mappings():
        _check_mapping(monitor, san, eid, va, pa, flags, ms_frames, seen)
    for page in enclave.pages.values():
        if not 0 <= page.offset < enclave.secs.size:
            fail(monitor.machine, san, SAN_ELRANGE,
                 f"I-4: enclave {eid} page offset {page.offset:#x} "
                 f"outside ELRANGE", frame=page.pa // PAGE_SIZE)


def _leaf_entry(pt, va: int) -> int | None:
    """Read one leaf PTE through raw physical memory (no side effects)."""
    entry_pa = pt._find_entry(va)
    if entry_pa is None:
        return None
    entry = pt.phys.read_u64(entry_pa)
    if not entry & PageTableFlags.PRESENT:
        return None
    return entry


def check_enclave_page(monitor, enclave, san, va: int) -> None:
    """The page-scoped variant run after hot ops (faults, swaps)."""
    eid = enclave.enclave_id
    page_va = va & ~(PAGE_SIZE - 1)
    page = enclave.page_at(page_va)
    if page is not None and not 0 <= page.offset < enclave.secs.size:
        fail(monitor.machine, san, SAN_ELRANGE,
             f"I-4: enclave {eid} page offset {page.offset:#x} outside "
             f"ELRANGE", frame=page.pa // PAGE_SIZE)
    entry = _leaf_entry(enclave.pt, page_va)
    if entry is None:
        return
    pa = entry & _ADDR_MASK
    flags = PageTableFlags(entry & ~_ADDR_MASK)
    ms_frames = set(enclave.marshalling.frames) if enclave.marshalling \
        else set()
    _check_mapping(monitor, san, eid, page_va, pa, flags, ms_frames, None)


# -- NPT coverage (I-3) ------------------------------------------------------

def check_npt(monitor, san) -> None:
    """I-3: the normal VM's NPT must never cover the reserved region."""
    cfg = monitor.machine.config
    for probe in (cfg.reserved_base,
                  cfg.reserved_base + cfg.reserved_size - PAGE_SIZE):
        if monitor.normal_npt.contains(probe):
            fail(monitor.machine, san, SAN_NPT,
                 f"I-3: normal VM NPT covers reserved frame {probe:#x}",
                 frame=probe // PAGE_SIZE)


# -- shadow-vs-real lockstep -------------------------------------------------

def check_lockstep(machine, san, *, full: bool = False) -> None:
    """Shadow ownership must mirror the real frame-owner table.

    Per-op, only frames dirtied since the last check are compared, each
    read through ``owner_of`` (region tags included); ``full=True``
    (audits) compares the entire table.
    """
    shadow = san.shadow
    phys = machine.phys
    if full:
        real = phys.owned_frames()
        if real != shadow.owners:
            for frame in sorted(set(shadow.owners) | set(real)):
                if shadow.owners.get(frame) != real.get(frame):
                    fail(machine, san, SAN_SHADOW,
                         f"shadow divergence at frame {frame:#x}: real "
                         f"owner {_render(real.get(frame))}, shadow "
                         f"{_render(shadow.owners.get(frame))} — some "
                         f"code path bypassed set_owner", frame=frame)
        shadow.dirty.clear()
        return
    for frame in shadow.dirty:
        owner = phys.owner_of(frame * PAGE_SIZE)
        if owner.kind is OwnerKind.FREE:
            owner = None
        if shadow.owners.get(frame) != owner:
            fail(machine, san, SAN_SHADOW,
                 f"shadow divergence at frame {frame:#x}: real owner "
                 f"{_render(owner)}, shadow "
                 f"{_render(shadow.owners.get(frame))}", frame=frame)
    shadow.dirty.clear()


def _render(owner) -> str:
    return render_owner(owner) if owner is not None else "free"


# -- TLB coherence -----------------------------------------------------------

def check_pending_shootdowns(machine, san) -> None:
    """No TLB translation may outlive its page's unmap/protect.

    Every unmap/protect on an ASID-tagged page table records a pending
    shootdown that only an INVLPG/flush retires; any survivor at the end
    of a monitor op is a stale-translation hole (paper Sec 6).
    """
    pending = san.shadow.pending_shootdowns
    if not pending:
        return
    (asid, vpn), op = sorted(pending.items())[0]
    fail(machine, san, SAN_TLB,
         f"stale TLB translation: asid {asid} va {vpn * PAGE_SIZE:#x} was "
         f"unmapped/protected during {op} but never shot down "
         f"({len(pending)} outstanding)")


# -- swap state --------------------------------------------------------------

def check_swap(monitor, enclave, san) -> None:
    """Swap-out/in must preserve version counters and residency state."""
    eid = enclave.enclave_id
    machine = monitor.machine
    state = monitor._swap_states.get(eid)
    records = dict(state.records) if state is not None else {}
    shadow_versions = {va: v for (e, va), v in
                       san.shadow.swap_versions.items() if e == eid}
    for va, record in records.items():
        version = shadow_versions.pop(va, None)
        if version is None:
            fail(machine, san, SAN_SWAP,
                 f"swap record for enclave {eid} page {va:#x} has no "
                 f"shadow version entry")
        if version != record.version:
            fail(machine, san, SAN_SWAP,
                 f"swap version mismatch for enclave {eid} page {va:#x}: "
                 f"monitor says v{record.version}, shadow saw v{version} "
                 f"(anti-replay counter tampered)")
        if enclave.page_at(va) is not None:
            fail(machine, san, SAN_SWAP,
                 f"enclave {eid} page {va:#x} is both swapped out and "
                 f"committed")
    if shadow_versions:
        va = sorted(shadow_versions)[0]
        fail(machine, san, SAN_SWAP,
             f"shadow swap entry for enclave {eid} page {va:#x} has no "
             f"monitor record (record dropped without swap-in)")


# -- measurement freeze ------------------------------------------------------

def check_measurement(monitor, enclave, san) -> None:
    """MRENCLAVE/MRSIGNER and measured page content freeze at EINIT."""
    snapshot = san.shadow.measurements.get(enclave.enclave_id)
    if snapshot is None:
        return
    machine = monitor.machine
    eid = enclave.enclave_id
    if enclave.secs.mrenclave != snapshot.mrenclave:
        fail(machine, san, SAN_MEASURE,
             f"enclave {eid} MRENCLAVE register changed after EINIT")
    if enclave.secs.mrsigner != snapshot.mrsigner:
        fail(machine, san, SAN_MEASURE,
             f"enclave {eid} MRSIGNER register changed after EINIT")
    from repro.monitor.structs import PagePerm
    for offset, digest in list(snapshot.page_hashes.items()):
        page = enclave.pages.get(offset)
        if page is None:
            continue                 # trimmed or swapped out: content is
                                     # protected elsewhere (AEAD / scrub)
        if page.perms & PagePerm.W:
            # The page was legitimately made writable post-EINIT
            # (EMODPE); the freeze no longer applies to its content.
            del snapshot.page_hashes[offset]
            continue
        if sha256(machine.phys.read(page.pa, PAGE_SIZE)) != digest:
            fail(machine, san, SAN_MEASURE,
                 f"measured page at offset {offset:#x} of enclave {eid} "
                 f"was modified after the EINIT measurement freeze",
                 frame=page.pa // PAGE_SIZE)


# -- untrusted reachability --------------------------------------------------

def check_untrusted_reach(machine, san) -> None:
    """No monitor/enclave frame may be reachable from an untrusted PT."""
    for pt in san.untrusted_pts():
        for va, pa, _flags in pt.mappings():
            owner = machine.phys.owner_of(pa)
            if owner.kind in (OwnerKind.MONITOR, OwnerKind.ENCLAVE):
                fail(machine, san, SAN_REACH,
                     f"untrusted page table maps {render_owner(owner)} "
                     f"frame {pa:#x} at {va:#x}", frame=pa // PAGE_SIZE)


# -- entry points ------------------------------------------------------------

def audit_monitor(monitor) -> None:
    """The full global sweep (RustMonitor.audit_invariants delegates here).

    Works with or without an attached sanitizer: the shadow-dependent
    checks (lockstep, TLB coherence, swap versions, measurement freeze,
    untrusted reach) need the hooks and only run when one is attached.
    """
    san = getattr(monitor.machine, "sanitizer", None)
    seen: dict[int, int] = {}
    for enclave in monitor.enclaves.values():
        check_enclave(monitor, enclave, san, seen=seen)
        if san is not None:
            check_measurement(monitor, enclave, san)
            check_swap(monitor, enclave, san)
    check_npt(monitor, san)
    if san is not None:
        check_lockstep(monitor.machine, san, full=True)
        check_pending_shootdowns(monitor.machine, san)
        check_untrusted_reach(monitor.machine, san)


def after_op(monitor, san, op: str, enclave_id: int | None = None,
             page_va: int | None = None) -> None:
    """The scoped check the sanitizer runs after every monitor op.

    Hot ops (page faults, swaps) re-check only the touched page so
    sanitized benchmark runs stay near-linear; lifecycle ops re-walk the
    whole enclave.
    """
    machine = monitor.machine
    check_lockstep(machine, san)
    check_pending_shootdowns(machine, san)
    check_npt(monitor, san)
    enclave = monitor.enclaves.get(enclave_id) \
        if enclave_id is not None else None
    if enclave is None:
        return
    if op in PAGE_SCOPED_OPS and page_va is not None:
        check_enclave_page(monitor, enclave, san, page_va)
        check_swap(monitor, enclave, san)
        return
    check_enclave(monitor, enclave, san)
    check_measurement(monitor, enclave, san)
    check_swap(monitor, enclave, san)
