"""Flight-recorder replay across the translation cache.

A journal recorded with every page walk done in full must replay with
zero divergence when translations come from the per-table caches, and
the reverse.  Both caches (the translation cache and the leaf-table
memo) are bypassed by keeping tables from registering their frames, so
no walk is ever cached or memoized; the program has no switch.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.flightrec.replay import replay_journal
from repro.flightrec.scenario import run_recorded
from repro.hw.paging import PageTable


@contextlib.contextmanager
def _counting_walks(monkeypatch, *, cached: bool):
    """Count translate calls and full walks; bypass both caches if asked."""
    counts = {"translates": 0, "walks": 0, "memoized": 0}
    translate, walk = PageTable.translate, PageTable._walk

    def counted_translate(self, *args, **kwargs):
        counts["translates"] += 1
        try:
            return translate(self, *args, **kwargs)
        finally:
            counts["memoized"] += bool(self._leaves)

    def counted_walk(self, *args, **kwargs):
        counts["walks"] += 1
        return walk(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(PageTable, "translate", counted_translate)
        patch.setattr(PageTable, "_walk", counted_walk)
        if not cached:
            patch.setattr(PageTable, "_register",
                          lambda self, frame_pa, *, upper: None)
        yield counts
    if cached:
        assert counts["walks"] < counts["translates"], counts
        assert counts["memoized"], counts
    else:
        assert counts["walks"] == counts["translates"], counts
        assert not counts["memoized"], counts


@pytest.mark.parametrize("record_cached,replay_cached", [
    (False, True), (True, False)], ids=["uncached->cached",
                                        "cached->uncached"])
def test_replay_across_the_cache_zero_divergence(
        lifecycle_scenario, monkeypatch, record_cached, replay_cached):
    with _counting_walks(monkeypatch, cached=record_cached):
        journal, figures = run_recorded(lifecycle_scenario, {"iters": 3},
                                        checkpoint_every=16)
    assert figures["sum"] == 3 * 42
    with _counting_walks(monkeypatch, cached=replay_cached):
        result = replay_journal(journal)
    assert result.ok, result.render()
    assert result.divergence is None
