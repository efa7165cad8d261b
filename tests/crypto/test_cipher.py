"""Tests for the AEAD cipher and the DRBG."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import cipher
from repro.crypto.cipher import (NONCE_SIZE, AeadSession, Drbg, aead_decrypt,
                                 aead_encrypt)
from repro.errors import SealError

KEY = b"k" * 32
NONCE = b"n" * 16
PAGE = bytes(range(256)) * 16


def test_roundtrip():
    blob = aead_encrypt(KEY, NONCE, b"secret data", aad=b"context")
    assert aead_decrypt(KEY, blob, aad=b"context") == b"secret data"


def test_empty_plaintext_roundtrip():
    blob = aead_encrypt(KEY, NONCE, b"")
    assert aead_decrypt(KEY, blob) == b""


def test_wrong_key_fails():
    blob = aead_encrypt(KEY, NONCE, b"data")
    with pytest.raises(SealError):
        aead_decrypt(b"x" * 32, blob)


def test_wrong_aad_fails():
    blob = aead_encrypt(KEY, NONCE, b"data", aad=b"a")
    with pytest.raises(SealError):
        aead_decrypt(KEY, blob, aad=b"b")


def test_tampered_ciphertext_fails():
    blob = bytearray(aead_encrypt(KEY, NONCE, b"data"))
    blob[len(blob) // 2] ^= 1
    with pytest.raises(SealError):
        aead_decrypt(KEY, bytes(blob))


def test_truncated_blob_fails():
    with pytest.raises(SealError):
        aead_decrypt(KEY, b"short")


def test_bad_nonce_length_rejected():
    with pytest.raises(ValueError):
        aead_encrypt(KEY, b"short", b"data")


def test_ciphertext_differs_from_plaintext():
    blob = aead_encrypt(KEY, NONCE, b"A" * 100)
    assert b"A" * 100 not in blob


@given(st.binary(max_size=500), st.binary(max_size=32))
def test_roundtrip_property(plaintext, aad):
    blob = aead_encrypt(KEY, NONCE, plaintext, aad=aad)
    assert aead_decrypt(KEY, blob, aad=aad) == plaintext


@pytest.fixture
def work(monkeypatch):
    """Count the tags and pads the cipher computes."""
    counts = {"tags": 0, "pads": 0}
    tag, pad = cipher._tag, cipher._pad

    def counted_tag(*args):
        counts["tags"] += 1
        return tag(*args)

    def counted_pad(*args):
        counts["pads"] += 1
        return pad(*args)

    monkeypatch.setattr(cipher, "_tag", counted_tag)
    monkeypatch.setattr(cipher, "_pad", counted_pad)
    return counts


def _opens_from_memo(work, session, blob, aad):
    """``blob`` opens to PAGE with no tag or pad computed, and is released."""
    held = session.held_blobs
    work.update(tags=0, pads=0)
    assert aead_decrypt(KEY, blob, aad=aad, session=session) == PAGE
    assert work == {"tags": 0, "pads": 0}
    assert session.held_blobs == held - 1


def test_session_opens_its_own_blob_without_a_tag_or_pad(work):
    session = AeadSession(KEY)
    blob = aead_encrypt(KEY, NONCE, PAGE, aad=b"va 1", session=session)
    assert blob == aead_encrypt(KEY, NONCE, PAGE, aad=b"va 1")
    assert session.held_blobs == 1
    _opens_from_memo(work, session, blob, b"va 1")
    # Released: opening it again verifies the tag and builds the pad.
    assert aead_decrypt(KEY, blob, aad=b"va 1", session=session) == PAGE
    assert work == {"tags": 1, "pads": 1}


def test_session_blob_under_another_aad_fails_and_stays_held(work):
    session = AeadSession(KEY)
    blob = aead_encrypt(KEY, NONCE, PAGE, aad=b"va 1", session=session)
    with pytest.raises(SealError):
        aead_decrypt(KEY, blob, aad=b"va 2", session=session)
    assert session.held_blobs == 1
    _opens_from_memo(work, session, blob, b"va 1")


@pytest.mark.parametrize("index", [0, NONCE_SIZE + 40, -1],
                         ids=["nonce", "ciphertext", "tag"])
def test_session_flipped_byte_fails_and_the_genuine_blob_opens(work, index):
    session = AeadSession(KEY)
    blob = aead_encrypt(KEY, NONCE, PAGE, aad=b"va 1", session=session)
    tampered = bytearray(blob)
    tampered[index] ^= 1
    with pytest.raises(SealError):
        aead_decrypt(KEY, bytes(tampered), aad=b"va 1", session=session)
    assert session.held_blobs == 1
    _opens_from_memo(work, session, blob, b"va 1")


def test_session_two_seals_under_one_nonce_open_to_their_own_plaintext():
    session = AeadSession(KEY)
    first = aead_encrypt(KEY, NONCE, b"A" * 4096, aad=b"v1", session=session)
    second = aead_encrypt(KEY, NONCE, b"B" * 4096, aad=b"v2",
                          session=session)
    assert aead_decrypt(KEY, first, aad=b"v1", session=session) == b"A" * 4096
    assert aead_decrypt(KEY, second, aad=b"v2",
                        session=session) == b"B" * 4096
    assert session.held_blobs == 0


def test_drbg_deterministic_from_seed():
    assert Drbg(b"seed").read(64) == Drbg(b"seed").read(64)


def test_drbg_differs_by_seed():
    assert Drbg(b"a").read(32) != Drbg(b"b").read(32)


def test_drbg_stream_advances():
    drbg = Drbg(b"seed")
    assert drbg.read(32) != drbg.read(32)


def test_drbg_randint_bits_msb_set():
    drbg = Drbg(b"seed")
    for bits in (8, 64, 512):
        value = drbg.randint_bits(bits)
        assert value.bit_length() == bits


def test_drbg_unseeded_unique():
    assert Drbg().read(32) != Drbg().read(32)
