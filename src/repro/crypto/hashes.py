"""Hashing, MAC, and key-derivation helpers built on :mod:`hashlib`."""

from __future__ import annotations

import hashlib
import hmac as _hmac

DIGEST_SIZE = 32


def sha256(*chunks: bytes) -> bytes:
    """SHA-256 over the concatenation of ``chunks``."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.digest()


def hmac_sha256(key: bytes, *chunks: bytes) -> bytes:
    """HMAC-SHA-256 over the concatenation of ``chunks``."""
    mac = _hmac.new(key, digestmod=hashlib.sha256)
    for chunk in chunks:
        mac.update(chunk)
    return mac.digest()


def constant_time_eq(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (delegates to :func:`hmac.compare_digest`)."""
    return _hmac.compare_digest(a, b)


def hkdf(ikm: bytes, *, salt: bytes = b"", info: bytes = b"",
         length: int = 32) -> bytes:
    """HKDF-SHA-256 (RFC 5869): extract-then-expand key derivation."""
    if length <= 0 or length > 255 * DIGEST_SIZE:
        raise ValueError(f"invalid HKDF output length {length}")
    prk = hmac_sha256(salt or b"\x00" * DIGEST_SIZE, ikm)
    blocks = []
    block = b""
    for counter in range(1, (length + DIGEST_SIZE - 1) // DIGEST_SIZE + 1):
        block = hmac_sha256(prk, block, info, bytes([counter]))
        blocks.append(block)
    return b"".join(blocks)[:length]
