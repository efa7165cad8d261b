"""Deterministic fault injection for replay validation.

A perturbation makes a replay *intentionally* diverge so the bisection
machinery can be tested end-to-end: inject +1 cycle into the K-th charge
of some category and replay must name the exact first divergent event.
Implemented by patching :meth:`CycleCounter.charge` for the duration of
the context — the simulation itself is untouched.
"""

from __future__ import annotations

from repro.hw.cycles import CycleCounter, category_entry


class perturb_cycles:
    """Add ``extra`` cycles to the ``at``-th charge matching ``category``.

    ``category`` matches exactly, or as a prefix when it ends with
    ``:`` (so ``"eenter:"`` matches ``"eenter:gu"`` and friends); an
    undeclared category (a typo would never fire) is a ValueError.
    Counting is global across every CycleCounter in the process, which
    is what makes the injection deterministic for a single-scenario
    replay.
    """

    def __init__(self, category: str, extra: float = 1.0,
                 at: int = 1) -> None:
        if at < 1:
            raise ValueError("at is 1-based")
        if category_entry(category) is None:
            raise ValueError(f"undeclared charge category {category!r}")
        self.category = category
        self.extra = extra
        self.at = at
        self.fired = False
        self._seen = 0
        self._original = None

    def _matches(self, category: str) -> bool:
        if self.category.endswith(":"):
            return category.startswith(self.category)
        return category == self.category

    def __enter__(self) -> "perturb_cycles":
        self._original = CycleCounter.charge
        injector = self

        def charge(counter, cycles, category):
            if not injector.fired and injector._matches(category):
                injector._seen += 1
                if injector._seen == injector.at:
                    injector.fired = True
                    cycles = cycles + injector.extra
            return injector._original(counter, cycles, category)

        CycleCounter.charge = charge
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        CycleCounter.charge = self._original
        return False
