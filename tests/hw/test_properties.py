"""Property-based tests for the core hardware structures."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import Llc
from repro.hw.tlb import Tlb


class _TextbookLru:
    """Per-line LRU: the oracle for every ``Llc`` operation."""

    def __init__(self, capacity_lines: int) -> None:
        self.capacity_lines = capacity_lines
        self.lines: OrderedDict[int, bool] = OrderedDict()
        self.hits = self.misses = 0

    def access(self, line: int, write: bool) -> tuple[bool, bool]:
        if line in self.lines:
            self.lines.move_to_end(line)
            if write:
                self.lines[line] = True
            self.hits += 1
            return True, False
        self.misses += 1
        self.lines[line] = write
        if len(self.lines) > self.capacity_lines:
            return False, self.lines.popitem(last=False)[1]
        return False, False

    def access_range(self, first: int, last: int, write: bool):
        hits = misses = dirty_evictions = 0
        runs: list[tuple[int, int]] = []
        for line in range(first, last + 1):
            hit, evicted_dirty = self.access(line, write)
            if hit:
                hits += 1
                continue
            misses += 1
            dirty_evictions += evicted_dirty
            if runs and runs[-1][1] == line:
                runs[-1] = (runs[-1][0], line + 1)
            else:
                runs.append((line, line + 1))
        return hits, misses, dirty_evictions, runs

    def flush_range(self, start: int, length: int) -> None:
        if length > 0:
            for line in range(start // 64, (start + length - 1) // 64 + 1):
                self.lines.pop(line, None)


_LINES = 40

#: One ``Llc`` operation each.  ``cover`` reads or writes ``[min, max]``
#: of the cached lines (a full-cover all-hit range whenever the cache is
#: one run), ``sub`` a range inside it, ``sweep`` at least a cache's worth
#: of lines, which refills the cache through the all-miss branch, and
#: ``again`` the last range once more, as web does on every request.
_LLC_OPS = st.one_of(
    st.tuples(st.just("range"), st.integers(0, _LINES),
              st.integers(0, 12), st.booleans()),
    st.tuples(st.just("cover"), st.booleans()),
    st.tuples(st.just("again"), st.booleans()),
    st.tuples(st.just("sub"), st.integers(0, 63), st.integers(0, 63),
              st.booleans()),
    st.tuples(st.just("sweep"), st.integers(0, _LINES),
              st.integers(0, 8), st.booleans()),
    st.tuples(st.just("ex"), st.integers(0, _LINES), st.booleans()),
    st.tuples(st.just("flush_line"), st.integers(0, _LINES)),
    st.tuples(st.just("flush_range"), st.integers(0, 64 * _LINES),
              st.integers(-64, 64 * 6)),
    st.tuples(st.just("flush_all")),
)


def _apply(op, llc: Llc, ref: _TextbookLru, ranges: list):
    """Run ``op`` on both; return both results (None for flushes).
    ``ranges`` collects the ``(first, last)`` of every range op."""
    kind = op[0]
    if kind == "ex":
        _, line, write = op
        return llc.access_ex(line, write=write), ref.access(line, write)
    if kind == "flush_line":
        llc.flush_line(op[1])
        ref.lines.pop(op[1], None)
        return None, None
    if kind == "flush_range":
        llc.flush_range(op[1], op[2])
        ref.flush_range(op[1], op[2])
        return None, None
    if kind == "flush_all":
        llc.flush_all()
        ref.lines.clear()
        return None, None
    if kind == "range":
        _, first, extra, write = op
        last = first + extra
    elif kind == "sweep":
        _, first, extra, write = op
        last = first + ref.capacity_lines - 1 + extra
    elif kind == "again":
        if not ranges:
            return None, None
        (first, last), write = ranges[-1], op[1]
    elif not ref.lines:
        return None, None
    else:
        lo, hi = min(ref.lines), max(ref.lines)
        write = op[-1]
        first, last = lo, hi
        if kind == "sub":
            first, last = sorted((lo + op[1] % (hi - lo + 1),
                                  lo + op[2] % (hi - lo + 1)))
    ranges.append((first, last))
    return (llc.access_range(first, last, write=write),
            ref.access_range(first, last, write))


class TestLlcAgainstReferenceModel:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 50), st.booleans()),
                    max_size=200),
           st.integers(min_value=1, max_value=16))
    def test_matches_naive_lru(self, accesses, capacity_lines):
        """The LLC must behave exactly like a textbook LRU."""
        llc = Llc(capacity_lines * 64)
        reference = _TextbookLru(capacity_lines)
        for line, write in accesses:
            expect_hit, _ = reference.access(line, write)
            hit, _ = llc.access_ex(line, write=write)
            assert hit == expect_hit
        assert set(reference.lines) == {
            line for line in range(51) if llc.contains(line)}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_LLC_OPS, max_size=40),
           st.integers(min_value=1, max_value=16))
    def test_every_operation_matches_naive_lru(self, ops, capacity_lines):
        """Range, per-line and flush operations in any order: each
        returns what the per-line LRU returns and leaves the same
        counters, LRU order and dirty bits."""
        llc = Llc(capacity_lines * 64)
        reference = _TextbookLru(capacity_lines)
        ranges: list[tuple[int, int]] = []
        for op in ops:
            got, expected = _apply(op, llc, reference, ranges)
            assert got == expected, op
            assert (llc.hits, llc.misses) == (reference.hits,
                                              reference.misses), op
            assert list(llc._lines.items()) == \
                list(reference.lines.items()), op
            # The remembered run, if any, is exactly the cache content.
            assert llc._span is None or list(llc._lines) == list(
                range(llc._span[0], llc._span[1] + 1)), op

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=300),
           st.integers(min_value=1, max_value=64))
    def test_occupancy_never_exceeds_capacity(self, lines, capacity):
        llc = Llc(capacity * 64)
        for line in lines:
            llc.access(line)
        assert len(llc) <= capacity
        assert llc.hits + llc.misses == len(lines)


class TestTlbProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 30)),
                    max_size=150),
           st.integers(min_value=1, max_value=8))
    def test_lookup_only_returns_inserted_mappings(self, ops, capacity):
        """Whatever the access pattern, a hit must return exactly what was
        last inserted for that (asid, page)."""
        tlb = Tlb(capacity)
        truth: dict[tuple[int, int], int] = {}
        for asid, vpn in ops:
            va = vpn * 4096
            hit = tlb.lookup(asid, va)
            if hit is not None:
                assert hit[0] == truth[(asid, vpn)]
            pa = (asid << 40) | (vpn << 12)
            tlb.insert(asid, va, pa, 0)
            truth[(asid, vpn)] = pa
        assert len(tlb) <= capacity

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 20)),
                    min_size=1, max_size=60))
    def test_flush_asid_is_complete_and_minimal(self, entries):
        tlb = Tlb(1024)
        for asid, vpn in entries:
            tlb.insert(asid, vpn * 4096, vpn * 4096, 0)
        tlb.flush_asid(2)
        for asid, vpn in entries:
            hit = tlb.lookup(asid, vpn * 4096)
            if asid == 2:
                assert hit is None
            else:
                assert hit is not None


class TestMeasurementProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63),
                              st.binary(max_size=64)),
                    min_size=1, max_size=10,
                    unique_by=lambda t: t[0]))
    def test_any_page_change_changes_mrenclave(self, pages):
        """Flipping one byte of any measured page changes MRENCLAVE."""
        from repro.monitor.measurement import MeasurementLog
        from repro.monitor.structs import PagePerm, PageType

        def measure(page_list):
            log = MeasurementLog()
            log.ecreate(0, 64 * 4096, "gu")
            for offset, content in page_list:
                log.eadd(offset * 4096, PageType.REG, PagePerm.RW, content)
            return log.finalize()

        baseline = measure(pages)
        for i in range(len(pages)):
            offset, content = pages[i]
            mutated = pages.copy()
            mutated[i] = (offset, content + b"\x01")
            assert measure(mutated) != baseline
