"""The bulk SHA-256-CTR keystream equals the byte-at-a-time definition."""

import hashlib
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import _keystream_xor


def _reference_keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """The oracle: one SHA-256 per 32-byte block, XORed byte by byte."""
    out = bytearray(len(data))
    for block in range(0, len(data), 32):
        pad = hashlib.sha256(
            key + nonce + struct.pack("<Q", block // 32)).digest()
        chunk = data[block:block + 32]
        for i, byte in enumerate(chunk):
            out[block + i] = byte ^ pad[i]
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(key=st.binary(max_size=64), nonce=st.binary(max_size=32),
       data=st.binary(max_size=9000))
def test_matches_byte_at_a_time_reference(key, nonce, data):
    assert _keystream_xor(key, nonce, data) == \
        _reference_keystream_xor(key, nonce, data)


@given(data=st.binary(max_size=300))
def test_is_an_involution(data):
    key, nonce = b"k" * 32, b"n" * 16
    assert _keystream_xor(key, nonce, _keystream_xor(key, nonce, data)) \
        == data


def test_leading_zero_bytes_survive():
    # The big-integer XOR must not drop high-order zero bytes: a zero
    # plaintext encrypts to the pad, and the pad back to zeros.
    key, nonce = b"\x00" * 32, b"\x00" * 16
    zeros = bytes(4097)
    pad = _keystream_xor(key, nonce, zeros)
    assert len(pad) == 4097
    assert pad == _reference_keystream_xor(key, nonce, zeros)
    assert _keystream_xor(key, nonce, pad) == zeros
