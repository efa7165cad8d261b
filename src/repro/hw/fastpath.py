"""The fast-path provenance label.

The memory/cycle hot paths (``repro.hw.memmodel``, ``repro.hw.tlb``,
``repro.hw.cache``, ``repro.hw.memenc``) run a layered fast path:
translation memoization above the TLB with deferred LRU bookkeeping,
bulk LLC range kernels, and closed-form MEE counter-tree group
charges.  Configurations it cannot reproduce exactly fall back to the
per-line reference loop, ``MemorySubsystem._touch_lines``; both give
bit-identical observable state, pinned by ``tests/fastpath``.

``docs/PERFORMANCE.md`` describes the layers.
"""

from __future__ import annotations


def mode_name() -> str:
    """The hot-path implementation, as a provenance string.

    ``perfbench/run.py`` records it in each run's provenance block.
    """
    return "python"
