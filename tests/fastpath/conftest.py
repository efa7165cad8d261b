"""Fixtures for the fast-path A/B equivalence suite.

The per-line reference loop, ``MemorySubsystem._touch_lines``, is the
runtime path for every configuration ``_resolve_fp_kind`` marks
ineligible; the program has no switch to force it.  The tests force it
by making that resolution store ``_KIND_INELIGIBLE``, and count which
path each touch took: a forced run must never enter ``_touch_fast`` and
a default run never ``_touch_lines`` — otherwise a suite could compare
the fast path against itself.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.hw import memmodel
from repro.hw.memmodel import MemorySubsystem


@contextlib.contextmanager
def counting_paths(monkeypatch, *, reference: bool):
    """Count reference-loop and fast-path touches; force the loop if asked.

    A subsystem resolves its path at first touch, so only subsystems
    first touched inside the block are forced.  Every default
    configuration is fast-path eligible, so a default run must not
    reach the loop.
    """
    counts = {"lines": 0, "fast": 0}
    touch_lines = MemorySubsystem._touch_lines
    touch_fast = MemorySubsystem._touch_fast

    def counted_lines(self, *args):
        counts["lines"] += 1
        return touch_lines(self, *args)

    def counted_fast(self, *args):
        counts["fast"] += 1
        return touch_fast(self, *args)

    def ineligible(self):
        self._fp_kind = memmodel._KIND_INELIGIBLE
        return self._fp_kind

    with monkeypatch.context() as patch:
        patch.setattr(MemorySubsystem, "_touch_lines", counted_lines)
        patch.setattr(MemorySubsystem, "_touch_fast", counted_fast)
        if reference:
            patch.setattr(MemorySubsystem, "_resolve_fp_kind", ineligible)
        yield counts
    assert counts["fast" if reference else "lines"] == 0, counts


@pytest.fixture
def ab_run(monkeypatch):
    """``ab_run(run)`` -> ``(reference, default)``: ``run()`` on each path.

    Both runs must route the same number of touches, each through its
    own path; ``touches=False`` declares a workload that never reaches
    ``MemorySubsystem.touch`` at all.
    """
    def run_both(run, *, touches: bool = True):
        with counting_paths(monkeypatch, reference=True) as ref_counts:
            reference = run()
        with counting_paths(monkeypatch, reference=False) as fast_counts:
            default = run()
        assert ref_counts["lines"] == fast_counts["fast"]
        assert (fast_counts["fast"] > 0) == touches, fast_counts
        return reference, default
    return run_both
