"""MONSAN: the monitor-invariant runtime sanitizer (docs/SANITIZER.md).

A shadow ownership model of simulated physical memory kept in lockstep
with the real state via hooks in ``phys`` / ``paging`` / ``tlb`` /
``swap``, plus invariant checkers that run after every monitor
operation when ``REPRO_SANITIZE=1``.  The static rules for the
determinism and isolation conventions live in :mod:`repro.staticcheck`.

The sanitizer observes — it never charges cycles — so enabling it leaves
every calibrated benchmark number bit-identical.
"""

from repro.sanitizer.runtime import Sanitizer, sanitize_enabled
from repro.sanitizer.violation import (SAN_ALIAS, SAN_ELRANGE, SAN_MEASURE,
                                       SAN_NPT, SAN_OWNER, SAN_REACH,
                                       SAN_SHADOW, SAN_SWAP, SAN_TLB, SAN_WX,
                                       FrameTransition, SanitizerViolation)

__all__ = [
    "Sanitizer", "SanitizerViolation", "FrameTransition", "sanitize_enabled",
    "SAN_OWNER", "SAN_ALIAS", "SAN_NPT", "SAN_ELRANGE", "SAN_WX", "SAN_TLB",
    "SAN_SWAP", "SAN_MEASURE", "SAN_REACH", "SAN_SHADOW",
]
