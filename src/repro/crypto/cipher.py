"""A SHA-256-CTR stream cipher with encrypt-then-MAC AEAD, plus a DRBG.

Used by the TPM's seal operation, the enclave sealing API and the EPC
swap path (which passes an :class:`AeadSession`).  The construction is
textbook: ``keystream[i] = SHA256(key || nonce || i)``, ciphertext is
XOR, and an HMAC-SHA-256 tag covers nonce, associated data and
ciphertext.  It is real (decryption fails on any tampering), small,
and needs no third-party packages.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct

from repro.crypto.hashes import DIGEST_SIZE, constant_time_eq, sha256
from repro.errors import SealError

NONCE_SIZE = 16
TAG_SIZE = DIGEST_SIZE


# The 8-byte block counters of one 4 KB page's pad, built once.
_COUNTERS = tuple(i.to_bytes(8, "little") for i in range(4096 // DIGEST_SIZE))


def _pad(key: bytes, nonce: bytes, n: int) -> int:
    """The first ``n`` bytes of the pad ``SHA256(key || nonce || LE64(i))``.

    The ``key || nonce`` prefix is hashed once and each block hashes only
    its counter onto a copy of that state.  The pad comes back as one
    little-endian integer, ready for :func:`_xor`.
    """
    prefix = hashlib.sha256(key)
    prefix.update(nonce)
    copy = prefix.copy
    blocks = (n + DIGEST_SIZE - 1) // DIGEST_SIZE
    counters = (_COUNTERS[:blocks] if blocks <= len(_COUNTERS) else
                [i.to_bytes(8, "little") for i in range(blocks)])
    pads = []
    for counter in counters:
        block = copy()
        block.update(counter)
        pads.append(block.digest())
    return int.from_bytes(b"".join(pads)[:n], "little")


def _xor(data: bytes, pad: int) -> bytes:
    """XOR ``data`` with a pad from :func:`_pad` of the same length."""
    n = len(data)
    return (int.from_bytes(data, "little") ^ pad).to_bytes(n, "little")


def _keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with pad blocks ``SHA256(key || nonce || LE64(i))``."""
    return _xor(data, _pad(key, nonce, len(data)))


def _split_keys(key: bytes) -> tuple[bytes, bytes]:
    enc = sha256(b"enc", key)
    mac = sha256(b"mac", key)
    return enc, mac


def _tag(mac_key: bytes, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
    """HMAC-SHA-256 over ``nonce || aad || ciphertext``, in one C call."""
    return _hmac.digest(mac_key, b"".join((nonce, aad, ciphertext)), "sha256")


class AeadSession:
    """One AEAD key split once, plus the blobs sealed but not yet opened.

    A caller that seals and later opens many blobs under one key (the
    EPC swap path) passes a session to :func:`aead_encrypt` and
    :func:`aead_decrypt` instead of re-deriving the encryption and MAC
    keys on every call.  Encrypting also holds ``(aad, blob, plaintext)``
    under the blob's nonce.  Decrypting a blob and AAD byte-equal to the
    held ones returns the held plaintext and releases the entry: the
    cipher is deterministic, so the tag would verify and the XOR would
    give those bytes.  Every other blob takes the full path (tag first,
    then a pad from scratch) and leaves the held entry alone.

    A held plaintext is secret: it stays inside the session, which has
    no serialization and whose ``repr`` shows only how many blobs it
    holds.
    """

    def __init__(self, key: bytes) -> None:
        self.keys = _split_keys(key)                   # (enc_key, mac_key)
        # nonce -> (aad, blob, plaintext)
        self._sealed: dict[bytes, tuple[bytes, bytes, bytes]] = {}

    def __repr__(self) -> str:
        return f"AeadSession(held_blobs={self.held_blobs})"

    @property
    def held_blobs(self) -> int:
        return len(self._sealed)

    def _hold(self, nonce: bytes, aad: bytes, blob: bytes,
              plaintext: bytes) -> None:
        self._sealed[nonce] = (aad, blob, plaintext)

    def _take(self, nonce: bytes, aad: bytes, blob: bytes) -> bytes | None:
        """The held plaintext of exactly this blob and AAD, released."""
        held = self._sealed.get(nonce)
        if held is None or held[1] != blob or held[0] != aad:
            return None
        del self._sealed[nonce]
        return held[2]


def _key_state(key: bytes, session: AeadSession | None
               ) -> tuple[bytes, bytes]:
    """``(enc_key, mac_key)``: the session's, or split from ``key``."""
    if session is not None:
        return session.keys
    return _split_keys(key)


def aead_encrypt(key: bytes, nonce: bytes, plaintext: bytes,
                 aad: bytes = b"", *,
                 session: AeadSession | None = None) -> bytes:
    """Encrypt-then-MAC.  Returns ``nonce || ciphertext || tag``.

    ``session``, if given, must be ``AeadSession(key)``; it supplies the
    split keys and holds the blob until it is opened.
    """
    if len(nonce) != NONCE_SIZE:
        raise ValueError(f"nonce must be {NONCE_SIZE} bytes")
    enc_key, mac_key = _key_state(key, session)
    ciphertext = _xor(plaintext, _pad(enc_key, nonce, len(plaintext)))
    blob = nonce + ciphertext + _tag(mac_key, nonce, aad, ciphertext)
    if session is not None:
        # A held value must not change after the seal: ``bytes()`` copies
        # a caller's mutable buffer and passes ``bytes`` through as is.
        session._hold(nonce, bytes(aad), blob, bytes(plaintext))
    return blob


def aead_decrypt(key: bytes, blob: bytes, aad: bytes = b"", *,
                 session: AeadSession | None = None) -> bytes:
    """Verify the tag and decrypt; raises :class:`SealError` on tamper.

    With a ``session`` (``AeadSession(key)``), the blob it sealed under
    the same AAD opens to the held plaintext and is released.
    """
    if len(blob) < NONCE_SIZE + TAG_SIZE:
        raise SealError("sealed blob too short")
    nonce = blob[:NONCE_SIZE]
    if session is not None:
        plaintext = session._take(nonce, aad, blob)
        if plaintext is not None:
            return plaintext
    enc_key, mac_key = _key_state(key, session)
    ciphertext = blob[NONCE_SIZE:-TAG_SIZE]
    if not constant_time_eq(blob[-TAG_SIZE:],
                            _tag(mac_key, nonce, aad, ciphertext)):
        raise SealError("authentication tag mismatch")
    return _xor(ciphertext, _pad(enc_key, nonce, len(ciphertext)))


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
