"""Differential test: the swap path with its sealed-blob memo against
without it.

Swap-out holds each page's blob, AAD and content in the enclave's
``AeadSession``, and the page's swap-in returns the held content when
the blob and AAD it opens are byte-equal to the held ones.  The memo is
bypassed by monkeypatching ``AeadSession._hold`` to keep nothing, so
every swap-in verifies the tag and computes its pad from scratch; the
program has no switch.  Both runs drive the same tiny-EPC sweep, interleaved with the
untrusted store's attacks (tamper, substitution, stale-version replay),
and must write the same blobs, reach the same machine state hashes, read
back the same page contents and raise the same ``SecurityViolation``s.
"""

from __future__ import annotations

import gc
import hashlib
import json
import weakref

import pytest

from repro.crypto import cipher
from repro.crypto.cipher import AeadSession
from repro.errors import SecurityViolation
from repro.flightrec.forensics import build_bundle
from repro.hw.machine import Machine, MachineConfig
from repro.hw.phys import PAGE_SIZE
from repro.monitor.boot import measured_late_launch
from repro.monitor.enclave import ENCLAVE_BASE_VA

from .conftest import build_minimal_enclave

MIB = 1024 * 1024
EXTRA_PAGES = 24           # pages touched beyond what the EPC pool holds


def _content(i: int, generation: int) -> bytes:
    seed = f"page {i} gen {generation}".encode()
    return hashlib.sha256(seed).digest() * (PAGE_SIZE // 32)


class _Sweep:
    """One tiny-EPC machine driven step by step, recording what it saw."""

    def __init__(self) -> None:
        self.machine = Machine(MachineConfig(
            phys_size=256 * MIB, reserved_base=128 * MIB,
            reserved_size=16 * MIB))
        self.monitor = measured_late_launch(
            self.machine, monitor_private_size=15 * MIB).monitor
        self.eid, self.enclave = build_minimal_enclave(
            self.monitor, self.machine, size=1024 * PAGE_SIZE,
            with_msbuf=False)
        self.base = ENCLAVE_BASE_VA + 64 * PAGE_SIZE
        self.monitor.reserve_region(self.eid, self.base, 512 * PAGE_SIZE)
        self.state = self.monitor._swap_state(self.enclave)
        self.store = self.monitor.swap_store
        self.shadow: dict[int, bytes] = {}    # page index -> last write
        self.trace: list = []

    def va(self, i: int) -> int:
        return self.base + i * PAGE_SIZE

    def check_held(self) -> None:
        assert self.state.session.held_blobs <= len(self.state.records)

    def write(self, i: int, generation: int) -> None:
        """Fault the page in if needed, then overwrite it."""
        va = self.va(i)
        if self.enclave.page_at(va) is None:
            self.monitor.handle_enclave_page_fault(self.eid, va, write=True)
        data = _content(i, generation)
        self.machine.phys.write(self.enclave.translate(va, write=True), data)
        self.shadow[i] = data
        self.check_held()

    def read(self, i: int) -> None:
        """Fault the page in if swapped; record and check its content."""
        va = self.va(i)
        if self.enclave.page_at(va) is None:
            self.monitor.handle_enclave_page_fault(self.eid, va)
        data = self.machine.phys.read(self.enclave.translate(va), PAGE_SIZE)
        assert data == self.shadow[i]
        self.trace.append(("read", i, hashlib.sha256(data).hexdigest()))
        self.check_held()

    def rejected(self, i: int) -> None:
        """A fault on page ``i`` must fail the integrity check."""
        held = self.state.session.held_blobs
        try:
            self.monitor.handle_enclave_page_fault(self.eid, self.va(i))
        except SecurityViolation as exc:
            self.trace.append(("violation", i, str(exc)))
        else:
            pytest.fail(f"page {i}: a forged blob was accepted")
        assert self.va(i) in self.state.records
        assert self.state.session.held_blobs == held
        self.check_held()

    def snapshot(self, label: str) -> None:
        blobs = hashlib.sha256()
        for va in sorted(self.state.records):
            record = self.state.records[va]
            blobs.update(va.to_bytes(8, "little")
                         + record.version.to_bytes(8, "little"))
            blobs.update(self.store.get(record.token))
        self.trace.append((label, len(self.state.records),
                           blobs.hexdigest(), self.machine.state_hash()))

    def swapped(self) -> list[int]:
        """Swapped-out pages of the sweep (the code page may be one too)."""
        return sorted((va - self.base) // PAGE_SIZE
                      for va in self.state.records if va >= self.base)

    def token(self, i: int) -> int:
        return self.state.records[self.va(i)].token


def _run(monkeypatch, *, memo: bool) -> tuple[list, int]:
    """The full scripted sweep; returns (trace, pads computed)."""
    pads = [0]
    build_pad = cipher._pad

    def counted_pad(*args):
        pads[0] += 1
        return build_pad(*args)

    with monkeypatch.context() as patch:
        patch.setattr(cipher, "_pad", counted_pad)
        if not memo:
            patch.setattr(AeadSession, "_hold", lambda self, *args: None)
        sweep = _Sweep()
        trace = _script(sweep, memo=memo)
    return trace, pads[0]


def _script(sweep: _Sweep, *, memo: bool) -> list:
    store, state = sweep.store, sweep.state
    pages = sweep.monitor.epc_pool.free_pages + EXTRA_PAGES
    for i in range(pages):
        sweep.write(i, 0)
    sweep.snapshot("filled")
    victims = sweep.swapped()
    assert len(victims) >= 8
    assert state.session.held_blobs == (len(state.records) if memo else 0)

    # Tamper with the ciphertext, the tag and the nonce: each fails on the
    # tag with the page's blob still held, and the genuine blob still opens.
    for page, byte_index in zip(victims[:3], (40, -1, 0)):
        token = sweep.token(page)
        genuine = store.get(token)
        store.tamper(token, byte_index)
        sweep.rejected(page)
        assert (genuine[:cipher.NONCE_SIZE] in state.session._sealed) == memo
        store._blobs[token] = genuine
        sweep.read(page)
    sweep.snapshot("tampered")

    # Substitution: page a's token now names page b's blob.
    page_a, page_b = sweep.swapped()[:2]
    token_a = sweep.token(page_a)
    genuine = store.get(token_a)
    store.replace(token_a, sweep.token(page_b))
    sweep.rejected(page_a)
    store._blobs[token_a] = genuine
    sweep.read(page_a)
    sweep.read(page_b)
    sweep.snapshot("substituted")

    # Stale-version replay: an older blob of the same page comes back.
    page = sweep.swapped()[0]
    stale = store.get(sweep.token(page))
    sweep.read(page)
    sweep.write(page, 1)
    assert sweep.monitor.swap_out(sweep.eid, sweep.va(page)) == 1
    token = sweep.token(page)
    fresh = store.get(token)
    store._blobs[token] = stale
    sweep.rejected(page)
    store._blobs[token] = fresh
    sweep.read(page)
    sweep.snapshot("replayed")

    # Sweep back down over the early pages, rewriting every other one.
    for i in reversed(range(2 * EXTRA_PAGES)):
        if i % 2:
            sweep.write(i, 2)
        sweep.read(i)
    sweep.snapshot("resweep")
    assert len(state.records) >= EXTRA_PAGES

    # No held page content, nor the pad it was sealed with, shows up in a
    # forensic bundle (state hash, fingerprint and dump included) or in
    # the session's repr, whether rendered as hex or as a bytes repr.
    held = state.session.held_blobs
    assert held == (len(state.records) if memo else 0)
    dump = json.dumps(build_bundle(sweep.machine), default=str)
    session_repr = repr(state.session)
    for _, blob, plaintext in state.session._sealed.values():
        ciphertext = blob[cipher.NONCE_SIZE:-cipher.TAG_SIZE]
        pad = bytes(c ^ p for c, p in zip(ciphertext, plaintext))
        for secret in (plaintext[:32], pad[:32]):
            hexed, shown = secret.hex(), str(secret)[2:-1]
            assert hexed not in dump
            assert json.dumps(shown)[1:-1] not in dump
            assert hexed not in session_repr and shown not in session_repr
    assert session_repr == f"AeadSession(held_blobs={held})"

    # EREMOVE drops the swap state with its session; nothing keeps it.
    session_ref = weakref.ref(state.session)
    sweep.monitor.eremove(sweep.eid)
    assert sweep.eid not in sweep.monitor._swap_states
    assert not store._blobs
    del state, sweep.state
    gc.collect()
    assert session_ref() is None
    return sweep.trace


def test_memo_matches_the_bypassed_path(monkeypatch):
    memo_trace, memo_pads = _run(monkeypatch, memo=True)
    plain_trace, plain_pads = _run(monkeypatch, memo=False)
    assert memo_trace == plain_trace
    assert sum(1 for step in memo_trace if step[0] == "violation") == 5
    # The memo really served swap-ins: fewer pads were computed.
    assert memo_pads < plain_pads
