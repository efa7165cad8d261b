"""A set of disjoint address ranges.

Used as the normal VM's nested page table: HyperEnclave "installs huge
pages in NPT when possible" (Appendix A.2), so the NPT is effectively a
small number of giant mappings — which is exactly an interval set.  The
monitor removes the reserved region from it ("RustMonitor prevents the
primary OS to access the reserved physical memory by removing the
corresponding mappings from its NPT", Sec 6).
"""

from __future__ import annotations

import bisect


class RangeSet:
    """Disjoint, sorted half-open integer ranges with add/remove/query."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        # Bumped by every add and remove, so a cached answer about the
        # set (the monitor's normal-frame memo) can tell it is stale.
        self.version = 0

    def add(self, start: int, end: int) -> None:
        """Insert [start, end), merging with neighbours."""
        if start >= end:
            raise ValueError("empty range")
        self.version += 1
        i = bisect.bisect_left(self._ends, start)
        j = bisect.bisect_right(self._starts, end)
        if i < j:
            start = min(start, self._starts[i])
            end = max(end, self._ends[j - 1])
        self._starts[i:j] = [start]
        self._ends[i:j] = [end]

    def remove(self, start: int, end: int) -> None:
        """Delete [start, end), splitting ranges as needed."""
        if start >= end:
            raise ValueError("empty range")
        self.version += 1
        i = bisect.bisect_right(self._ends, start)
        new_starts: list[int] = []
        new_ends: list[int] = []
        while i < len(self._starts) and self._starts[i] < end:
            s, e = self._starts[i], self._ends[i]
            del self._starts[i], self._ends[i]
            if s < start:
                new_starts.append(s)
                new_ends.append(start)
            if e > end:
                new_starts.append(end)
                new_ends.append(e)
        self._starts[i:i] = new_starts
        self._ends[i:i] = new_ends

    def contains(self, addr: int) -> bool:
        """Is ``addr`` inside some range?"""
        i = bisect.bisect_right(self._starts, addr) - 1
        return i >= 0 and addr < self._ends[i]

    def contains_range(self, start: int, end: int) -> bool:
        """Is the whole of [start, end) inside a single range?"""
        if start >= end:
            raise ValueError("empty range")
        i = bisect.bisect_right(self._starts, start) - 1
        return i >= 0 and end <= self._ends[i]

    def ranges(self) -> list[tuple[int, int]]:
        return list(zip(self._starts, self._ends))

    def __len__(self) -> int:
        return len(self._starts)
