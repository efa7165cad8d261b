"""Enclave page swapping (the EWB/ELDU analog, Sec 3.2).

When the enclave memory pool runs dry, RustMonitor can evict committed
enclave pages to *untrusted* normal memory: the page is encrypted and
MACed under a per-enclave swap key (derived from K_root and MRENCLAVE),
tagged with its virtual address and a per-page version, and the frame is
scrubbed and returned to the pool.  The trusted metadata — token, version
— stays in RustMonitor's memory, so the untrusted backing store can
neither tamper with, substitute, nor replay a blob:

* tamper     -> AEAD tag fails on swap-in;
* substitute -> the AAD binds the virtual address;
* replay     -> the AAD binds the version recorded in monitor memory.

Swap-in happens transparently on the enclave's next page fault.  The
swap key is split into its encryption and MAC keys once per enclave, and
each swapped-out page's sealed blob, AAD and content stay in the
enclave's :class:`~repro.crypto.cipher.AeadSession` until the page's
swap-in opens that very blob or EREMOVE drops the swap state.  A swap-in
whose blob and AAD are byte-equal to the held ones gets the held content
back without a tag check or a pad; any other blob (tampered,
substituted, stale) is verified in full and fails as above.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cipher import AeadSession, aead_encrypt, aead_decrypt
from repro.crypto.hashes import hkdf
from repro.errors import MonitorError, SecurityViolation, SealError
from repro.hw.phys import PAGE_SIZE

# EWB/ELDU-like costs: encrypt/MAC a 4 KB page + bookkeeping.
SWAP_OUT_CYCLES = 14_000
SWAP_IN_CYCLES = 15_500


class UntrustedSwapStore:
    """The OS-side backing store: a plain dict an attacker fully controls."""

    def __init__(self) -> None:
        self._blobs: dict[int, bytes] = {}
        self._next_token = 1

    def put(self, blob: bytes) -> int:
        token = self._next_token
        self._next_token += 1
        self._blobs[token] = blob
        return token

    def get(self, token: int) -> bytes:
        blob = self._blobs.get(token)
        if blob is None:
            raise MonitorError(f"swap store lost blob {token}")
        return blob

    def drop(self, token: int) -> None:
        self._blobs.pop(token, None)

    # Attacker's surface (used by the security tests):
    def tamper(self, token: int, byte_index: int) -> None:
        blob = bytearray(self._blobs[token])
        blob[byte_index % len(blob)] ^= 1
        self._blobs[token] = bytes(blob)

    def replace(self, token: int, other_token: int) -> None:
        self._blobs[token] = self._blobs[other_token]


@dataclass
class SwappedPageRecord:
    """Trusted per-page metadata kept in monitor memory."""

    token: int
    version: int
    perms: object            # PagePerm to restore


class EnclaveSwapState:
    """Per-enclave swap bookkeeping, owned by RustMonitor."""

    def __init__(self, swap_key: bytes) -> None:
        self.key = swap_key
        # Split keys, and the sealed blob of each page in ``records``
        # until its swap-in: no held blob outlives its record.
        self.session = AeadSession(swap_key)
        self.records: dict[int, SwappedPageRecord] = {}   # page VA -> rec
        self._version = 0

    def next_version(self) -> int:
        self._version += 1
        return self._version


def derive_swap_key(keys, mrenclave: bytes) -> bytes:
    """The per-enclave swap key: bound to K_root and the enclave identity."""
    return hkdf(keys.seal_key(mrenclave=mrenclave, mrsigner=b"",
                              policy=_mrenclave_policy()),
                info=b"page-swap-key")


def _mrenclave_policy():
    from repro.monitor.sealing import SealPolicy
    return SealPolicy.MRENCLAVE


def _aad(va: int, version: int) -> bytes:
    return b"EWB" + va.to_bytes(8, "little") + version.to_bytes(8, "little")


def swap_out_page(monitor, enclave, state: EnclaveSwapState,
                  store: UntrustedSwapStore, va: int) -> int:
    """Evict one committed page; returns the backing-store token."""
    page_va = va & ~(PAGE_SIZE - 1)
    page = enclave.page_at(page_va)
    if page is None:
        raise MonitorError(f"swap-out of uncommitted page {page_va:#x}")
    if page_va in state.records:
        raise MonitorError(f"page {page_va:#x} already swapped")
    tel = monitor.machine.telemetry
    with tel.site("swap_out", enclave=enclave.enclave_id, va=page_va):
        phys = monitor.machine.phys
        content = phys.read(page.pa, PAGE_SIZE)
        version = state.next_version()
        nonce = monitor.machine.tpm.random(16)
        blob = aead_encrypt(state.key, nonce, content,
                            aad=_aad(page_va, version),
                            session=state.session)
        token = store.put(blob)
        state.records[page_va] = SwappedPageRecord(
            token=token, version=version, perms=page.perms)
        # Scrub and free the frame; drop the mapping and stale TLB entries.
        enclave.pt.unmap(page_va)
        monitor.epc_pool.free(page.pa)
        del enclave.pages[page.offset]
        monitor._tlb_shootdown(enclave.enclave_id, page_va)
        monitor.machine.cycles.charge(SWAP_OUT_CYCLES, "swap-out")
        san = monitor.machine.sanitizer
        if san is not None:
            san.on_swap_out(enclave, page_va, version, page.pa)
    tel.count("monitor", "swap.pages_out", enclave=enclave.enclave_id)
    return token


def swap_in_page(monitor, enclave, state: EnclaveSwapState,
                 store: UntrustedSwapStore, va: int) -> None:
    """Fault path: bring a swapped page back, verifying integrity."""
    page_va = va & ~(PAGE_SIZE - 1)
    record = state.records.get(page_va)
    if record is None:
        raise MonitorError(f"page {page_va:#x} is not swapped")
    tel = monitor.machine.telemetry
    with tel.site("swap_in", enclave=enclave.enclave_id, va=page_va):
        blob = store.get(record.token)
        try:
            content = aead_decrypt(state.key, blob,
                                   aad=_aad(page_va, record.version),
                                   session=state.session)
        except SealError as exc:
            raise SecurityViolation(
                f"swap-in integrity failure for enclave "
                f"{enclave.enclave_id} page {page_va:#x}: the untrusted "
                f"backing store returned a tampered/substituted/stale blob "
                f"({exc})") from exc
        # Under pool pressure the swap-in itself may need to evict a victim.
        pa = monitor._alloc_epc_frame(enclave.enclave_id)
        monitor.machine.phys.write(pa, content)
        enclave.commit_page(page_va, pa, record.perms)
        del state.records[page_va]
        store.drop(record.token)
        monitor.machine.cycles.charge(SWAP_IN_CYCLES, "swap-in")
        san = monitor.machine.sanitizer
        if san is not None:
            san.on_swap_in(enclave, page_va, record.version, pa)
    tel.count("monitor", "swap.pages_in", enclave=enclave.enclave_id)
