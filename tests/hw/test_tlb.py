"""Tests for the TLB."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.paging import PageTableFlags as F
from repro.hw.phys import PAGE_SIZE
from repro.hw.tlb import Tlb


def test_miss_then_hit():
    tlb = Tlb(4)
    assert tlb.lookup(1, 0x1000) is None
    tlb.insert(1, 0x1000, 0x9000, F.URW)
    assert tlb.lookup(1, 0x1000) == (0x9000, F.URW)
    assert tlb.hits == 1
    assert tlb.misses == 1


def test_asid_separation():
    tlb = Tlb(4)
    tlb.insert(1, 0x1000, 0x9000, F.URW)
    assert tlb.lookup(2, 0x1000) is None


def test_same_page_different_offsets_hit():
    tlb = Tlb(4)
    tlb.insert(1, 0x1000, 0x9000, F.URW)
    assert tlb.lookup(1, 0x1FFF) == (0x9000, F.URW)


def test_lru_eviction():
    tlb = Tlb(2)
    tlb.insert(1, 0x1000, 0xA000, F.URW)
    tlb.insert(1, 0x2000, 0xB000, F.URW)
    tlb.lookup(1, 0x1000)            # make 0x1000 most recent
    tlb.insert(1, 0x3000, 0xC000, F.URW)
    assert tlb.lookup(1, 0x2000) is None   # evicted
    assert tlb.lookup(1, 0x1000) is not None


def test_flush_clears_everything():
    tlb = Tlb(4)
    tlb.insert(1, 0x1000, 0x9000, F.URW)
    tlb.flush()
    assert len(tlb) == 0
    assert tlb.flushes == 1


def test_flush_asid_is_selective():
    tlb = Tlb(4)
    tlb.insert(1, 0x1000, 0x9000, F.URW)
    tlb.insert(2, 0x1000, 0x8000, F.URW)
    tlb.flush_asid(1)
    assert tlb.lookup(1, 0x1000) is None
    assert tlb.lookup(2, 0x1000) is not None


def test_invlpg_single_page():
    tlb = Tlb(4)
    tlb.insert(1, 0x1000, 0x9000, F.URW)
    tlb.insert(1, 0x2000, 0xA000, F.URW)
    tlb.invlpg(1, 0x1000)
    assert tlb.lookup(1, 0x1000) is None
    assert tlb.lookup(1, 0x2000) is not None


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        Tlb(0)


def _per_page_run(tlb: Tlb, asid: int, first: int, stop: int) -> int:
    """The memory model's page stage before ``touch_pages``: one
    ``fast_hit``/``lookup``/``insert`` step per page."""
    misses = 0
    for vpn in range(first, stop):
        if not tlb.fast_hit(asid, vpn) \
                and tlb.lookup(asid, vpn * PAGE_SIZE) is None:
            misses += 1
            tlb.insert(asid, vpn * PAGE_SIZE, vpn * PAGE_SIZE, flags=0)
    return misses


_ASID = st.integers(1, 3)
_VPN = st.integers(0, 24)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("run"), _ASID, _VPN, st.integers(0, 14)),
    st.tuples(st.just("fast_hit"), _ASID, _VPN),    # leaves a pending hit
    st.tuples(st.just("lookup"), _ASID, _VPN),
    st.tuples(st.just("insert"), _ASID, _VPN),
    st.tuples(st.just("invlpg"), _ASID, _VPN),
    st.tuples(st.just("flush_asid"), _ASID),
    st.tuples(st.just("flush"))), max_size=40)


def _apply(tlb: Tlb, op: tuple, run) -> object:
    name, *args = op
    if name == "run":
        asid, first, length = args
        return run(tlb, asid, first, first + length)
    if name == "fast_hit":
        return tlb.fast_hit(*args)
    if name == "lookup":
        return tlb.lookup(args[0], args[1] * PAGE_SIZE)
    if name == "insert":
        return tlb.insert(args[0], args[1] * PAGE_SIZE, 0x9000, F.URW)
    if name == "invlpg":
        return tlb.invlpg(args[0], args[1] * PAGE_SIZE)
    return getattr(tlb, name)(*args)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), _OPS)
# An invlpg that empties the TLB leaves the ASID's (empty) key index
# behind; the next run must still be found by flush_asid.
@example(4, [("insert", 1, 3), ("invlpg", 1, 3), ("run", 1, 0, 2),
             ("flush_asid", 1)])
def test_touch_pages_matches_the_per_page_loop(capacity, ops):
    """Empty TLBs, runs longer than ``capacity``, pending deferred hits
    and every kind of invalidation, across three ASIDs."""
    run_tlb, ref_tlb = Tlb(capacity), Tlb(capacity)
    for op in ops:
        got = _apply(run_tlb, op,
                     lambda t, a, f, s: t.touch_pages(a, f, s))
        want = _apply(ref_tlb, op, _per_page_run)
        assert got == want, op
        # Counters only: a dump would replay the pending hits that the
        # next run must see.
        assert (run_tlb.hits, run_tlb.misses, run_tlb.flushes) \
            == (ref_tlb.hits, ref_tlb.misses, ref_tlb.flushes), op
    assert run_tlb.entries_dump() == ref_tlb.entries_dump()
    assert (run_tlb.hits, run_tlb.misses, run_tlb.flushes) \
        == (ref_tlb.hits, ref_tlb.misses, ref_tlb.flushes)
    assert run_tlb.state_digest() == ref_tlb.state_digest()


def test_a_run_on_an_empty_tlb_keeps_the_newest_capacity_pages():
    tlb = Tlb(3)
    assert tlb.touch_pages(2, 10, 15) == 5
    assert [(e["asid"], e["vpn"], e["pa_page"]) for e in tlb.entries_dump()] \
        == [(2, 12, 12 * PAGE_SIZE), (2, 13, 13 * PAGE_SIZE),
            (2, 14, 14 * PAGE_SIZE)]
    assert (tlb.hits, tlb.misses) == (0, 5)
    assert tlb.touch_pages(2, 13, 15) == 0          # now resident
    assert tlb.hits == 2
    tlb.flush_asid(2)
    assert len(tlb) == 0


def test_flushing_an_empty_tlb_still_counts_and_reports():
    seen = []

    class Recorder:
        def on_tlb_flush(self):
            seen.append("flush")

    tlb = Tlb(4)
    tlb.sanitizer = Recorder()
    tlb.flush()
    tlb.touch_pages(1, 0, 2)
    tlb.flush()
    tlb.flush()
    assert tlb.flushes == 3
    assert seen == ["flush"] * 3
    assert len(tlb) == 0
