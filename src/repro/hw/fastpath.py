"""The ``REPRO_FASTPATH`` switch: fast-path mode for the hot loops.

The memory/cycle hot paths (``repro.hw.memmodel``, ``repro.hw.tlb``,
``repro.hw.cache``, ``repro.hw.memenc``) have two implementations:

* the *legacy* per-page/per-line reference loops (``REPRO_FASTPATH=0``),
  kept verbatim as the semantic ground truth, and
* the *fast* layered path (default): translation memoization above the
  TLB with deferred LRU bookkeeping, bulk LLC range kernels, and
  closed-form MEE counter-tree group charges.

Both produce bit-identical observable state — cycle totals, category
breakdowns, TLB/LLC/MEE counters, LRU orders, ``state_digest()``s — at
every observation point; ``tests/fastpath`` pins the equivalence and the
flight recorder replays journals across modes with zero divergence.

``docs/PERFORMANCE.md`` describes the layers.
"""

from __future__ import annotations

import os

MODE_LEGACY = 0
MODE_PYTHON = 1

_ENV = "REPRO_FASTPATH"


def _parse(raw: str | None) -> int:
    if raw is None:
        return MODE_PYTHON
    value = raw.strip().lower()
    if value in ("0", "off", "legacy", "false", "no"):
        return MODE_LEGACY
    # Any other value (including "", "1", "on", "numpy") means the default
    # fast path — fail open to the pure-Python implementation.
    return MODE_PYTHON


# The resolved mode.  Module-level so the per-touch check is one
# attribute load; ``set_mode`` repoints it for tests.
MODE: int = _parse(os.environ.get(_ENV))


def mode() -> int:
    """The active fast-path mode (module-level ``MODE`` mirror)."""
    return MODE


def enabled() -> bool:
    """True unless the legacy reference path is forced."""
    return MODE != MODE_LEGACY


def mode_name() -> str:
    """The active mode as a provenance-friendly string."""
    return {MODE_LEGACY: "legacy", MODE_PYTHON: "python"}[MODE]


def set_mode(value: int | str | None) -> int:
    """Override the mode in-process (tests; see also ``REPRO_FASTPATH``).

    Accepts a mode constant or the same strings the environment variable
    takes; ``None`` re-reads the environment.  Returns the mode that
    took effect.  Existing ``MemorySubsystem`` instances pick the new
    mode up on their next touch; their cached engine-eligibility flags
    survive because eligibility is mode-independent.
    """
    global MODE
    if value is None:
        # repro-lint: disable=SC001 -- mode knob only: every mode charges
        # identical cycles (CI fastpath-equivalence gate + SC004 parity)
        MODE = _parse(os.environ.get(_ENV))
    elif isinstance(value, str):
        MODE = _parse(value)
    else:
        if value not in (MODE_LEGACY, MODE_PYTHON):
            raise ValueError(f"unknown fast-path mode {value!r}")
        MODE = value
    return MODE
