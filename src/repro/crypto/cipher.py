"""A SHA-256-CTR stream cipher with encrypt-then-MAC AEAD, plus a DRBG.

Used by the TPM's seal operation and by the enclave sealing API.  The
construction is textbook: ``keystream[i] = SHA256(key || nonce || i)``,
ciphertext is XOR, and an HMAC-SHA-256 tag covers nonce, associated data
and ciphertext.  It is real (decryption fails on any tampering), small,
and needs no third-party packages.
"""

from __future__ import annotations

import hashlib
import struct

from repro.crypto.hashes import (DIGEST_SIZE, constant_time_eq, hmac_sha256,
                                 sha256)
from repro.errors import SealError

NONCE_SIZE = 16
TAG_SIZE = DIGEST_SIZE


def _keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with pad blocks ``SHA256(key || nonce || LE64(i))``.

    The ``key || nonce`` prefix is hashed once and each block hashes only
    its counter onto a copy of that state; the joined pad is XORed into
    ``data`` as one big-integer operation.
    """
    n = len(data)
    prefix = hashlib.sha256(key)
    prefix.update(nonce)
    copy = prefix.copy
    pads = []
    for i in range((n + DIGEST_SIZE - 1) // DIGEST_SIZE):
        block = copy()
        block.update(i.to_bytes(8, "little"))
        pads.append(block.digest())
    pad = b"".join(pads)[:n]
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(pad, "little")).to_bytes(n, "little")


def _split_keys(key: bytes) -> tuple[bytes, bytes]:
    enc = sha256(b"enc", key)
    mac = sha256(b"mac", key)
    return enc, mac


def aead_encrypt(key: bytes, nonce: bytes, plaintext: bytes,
                 aad: bytes = b"") -> bytes:
    """Encrypt-then-MAC.  Returns ``nonce || ciphertext || tag``."""
    if len(nonce) != NONCE_SIZE:
        raise ValueError(f"nonce must be {NONCE_SIZE} bytes")
    enc_key, mac_key = _split_keys(key)
    ciphertext = _keystream_xor(enc_key, nonce, plaintext)
    tag = hmac_sha256(mac_key, nonce, aad, ciphertext)
    return nonce + ciphertext + tag


def aead_decrypt(key: bytes, blob: bytes, aad: bytes = b"") -> bytes:
    """Verify the tag and decrypt; raises :class:`SealError` on tamper."""
    if len(blob) < NONCE_SIZE + TAG_SIZE:
        raise SealError("sealed blob too short")
    nonce = blob[:NONCE_SIZE]
    ciphertext = blob[NONCE_SIZE:-TAG_SIZE]
    tag = blob[-TAG_SIZE:]
    enc_key, mac_key = _split_keys(key)
    expected = hmac_sha256(mac_key, nonce, aad, ciphertext)
    if not constant_time_eq(tag, expected):
        raise SealError("authentication tag mismatch")
    return _keystream_xor(enc_key, nonce, ciphertext)


class Drbg:
    """Deterministic random bit generator (hash-counter construction).

    The TPM's RNG and key generation use this so a seeded simulation is
    fully reproducible while an unseeded one draws entropy from
    :func:`os.urandom`.
    """

    def __init__(self, seed: bytes | None = None) -> None:
        if seed is None:
            import os
            # repro-lint: disable=SC001 -- entropy fallback only when the
            # caller omits a seed; every simulated component passes one
            seed = os.urandom(32)
        self._state = sha256(b"drbg-init", seed)
        self._counter = 0

    def read(self, n: int) -> bytes:
        """Return ``n`` pseudo-random bytes and advance the state."""
        blocks = []
        for _ in range((n + DIGEST_SIZE - 1) // DIGEST_SIZE):
            self._counter += 1
            blocks.append(sha256(self._state,
                                 struct.pack("<Q", self._counter)))
        self._state = sha256(b"drbg-ratchet", self._state)
        return b"".join(blocks)[:n]

    def position(self) -> str:
        """A fingerprint of the generator position (state + counter).

        Two Drbg instances with equal positions will produce identical
        future output — the property machine state hashing needs.
        """
        return sha256(self._state, struct.pack("<Q", self._counter)).hex()

    def randint_bits(self, bits: int) -> int:
        """A random integer with exactly ``bits`` bits (MSB set)."""
        if bits < 2:
            raise ValueError("need at least 2 bits")
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.read(nbytes), "big")
        value &= (1 << bits) - 1
        value |= 1 << (bits - 1)
        return value
