"""Flight-recorder replay across the swap path's sealed-blob memo.

A journal of the page-swap ablation recorded with every swap-in
verifying its tag and computing its pad from scratch must replay with
zero divergence when swap-ins open the blob held since swap-out from the
memo, and the reverse.  The memo is bypassed by keeping ``AeadSession``
from holding any blob; the program has no switch.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.crypto import cipher
from repro.crypto.cipher import AeadSession
from repro.flightrec.replay import replay_journal
from repro.flightrec.scenario import run_recorded

SCENARIO = "bench:ablation_swap"


@contextlib.contextmanager
def _counting_pads(monkeypatch, *, memo: bool):
    """Count AEAD calls and pads built; bypass the memo if asked."""
    counts = {"aead": 0, "pads": 0}
    encrypt, decrypt, build_pad = (cipher.aead_encrypt, cipher.aead_decrypt,
                                   cipher._pad)

    def counted(fn):
        def call(*args, **kwargs):
            counts["aead"] += 1
            return fn(*args, **kwargs)
        return call

    def counted_pad(*args):
        counts["pads"] += 1
        return build_pad(*args)

    with monkeypatch.context() as patch:
        patch.setattr("repro.monitor.swap.aead_encrypt", counted(encrypt))
        patch.setattr("repro.monitor.swap.aead_decrypt", counted(decrypt))
        patch.setattr(cipher, "_pad", counted_pad)
        if not memo:
            patch.setattr(AeadSession, "_hold", lambda self, *args: None)
        yield counts
    assert counts["aead"] > 0
    if memo:
        assert counts["pads"] < counts["aead"], counts
    else:
        assert counts["pads"] >= counts["aead"], counts


@pytest.mark.parametrize("record_memo,replay_memo", [
    (False, True), (True, False)], ids=["bypassed->memo", "memo->bypassed"])
def test_replay_across_the_memo_zero_divergence(monkeypatch, record_memo,
                                                replay_memo):
    with _counting_pads(monkeypatch, memo=record_memo):
        journal, _ = run_recorded(SCENARIO)
    with _counting_pads(monkeypatch, memo=replay_memo):
        result = replay_journal(journal)
    assert result.ok, result.render()
    assert result.divergence is None
