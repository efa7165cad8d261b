"""The int-mask walk and per-table translation cache are exact.

A differential property test runs the same random sequence of table
edits, raw physical writes, DMA and translations against the real
``PageTable`` and against an oracle table that walks every time with the
original ``IntFlag`` code, and compares every result, fault, counter and
byte of memory.  Targeted tests pin each way a write must invalidate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageFault
from repro.hw.iommu import Iommu
from repro.hw.paging import (_ADDR_MASK, ENTRY_SIZE, ENTRIES_PER_TABLE,
                             LEVELS, PageTable, PageTableFlags, PagingStats,
                             Translation)
from repro.hw.phys import NORMAL, PAGE_SIZE, FramePool, PhysicalMemory

F = PageTableFlags

PHYS_FRAMES = 256
POOL_FRAMES = 128             # table frames come from [0, 128); data above
# Pages that share a leaf table, a level-1 table, a level-2 table, or
# nothing but the root.
VAS = (0x1000, 0x2000, 0x20_0000, 0x4000_1000, 0x7FFF_FFFF_F000)
DATA_PAS = tuple((POOL_FRAMES + i) * PAGE_SIZE for i in range(8))
FLAG_CHOICES = (F.URW, F.UR, F.URX, F.RW, F.PRESENT, F.URW | F.NX,
                F.URW | F.ACCESSED, F.URW | F.ACCESSED | F.DIRTY)
TOGGLES = (F.PRESENT, F.WRITABLE, F.USER, F.ACCESSED, F.DIRTY, F.NX)


def _index(va: int, level: int) -> int:
    """Index into the ``level``-th table (level 3 = root) for ``va``."""
    return (va >> (12 + 9 * level)) & (ENTRIES_PER_TABLE - 1)


class OracleTable(PageTable):
    """The walk as it was before the rewrite: IntFlag masks, no cache."""

    def translate(self, va, *, write=False, user=True, fetch=False,
                  set_accessed=True):
        stats = self.stats
        if stats is None:
            return self._walk(va, write=write, user=user, fetch=fetch,
                              set_accessed=set_accessed)
        stats.walks += 1
        try:
            result = self._walk(va, write=write, user=user, fetch=fetch,
                                set_accessed=set_accessed)
        except PageFault:
            stats.faults += 1
            raise
        stats.refs += result.refs
        return result

    def _walk(self, va, *, write, user, fetch, set_accessed):
        self._check_canonical(va)
        table_pa = self.root_pa
        refs = 0
        for level in range(LEVELS - 1, -1, -1):
            entry_pa = table_pa + _index(va, level) * ENTRY_SIZE
            entry = self.phys.read_u64(entry_pa)
            refs += 1
            if not entry & PageTableFlags.PRESENT:
                raise PageFault(va, write=write, user=user, fetch=fetch,
                                present=False)
            if level == 0:
                flags = PageTableFlags(entry & ~_ADDR_MASK)
                if write and not flags & PageTableFlags.WRITABLE:
                    raise PageFault(va, write=True, user=user, present=True)
                if user and not flags & PageTableFlags.USER:
                    raise PageFault(va, write=write, user=True, present=True)
                if fetch and flags & PageTableFlags.NX:
                    raise PageFault(va, fetch=True, user=user, present=True)
                if set_accessed:
                    new = entry | PageTableFlags.ACCESSED
                    if write:
                        new |= PageTableFlags.DIRTY
                    if new != entry:
                        self.phys.write_u64(entry_pa, new)
                return Translation(
                    pa=(entry & _ADDR_MASK) | (va & (PAGE_SIZE - 1)),
                    flags=flags, refs=refs)
            table_pa = entry & _ADDR_MASK
        raise AssertionError("unreachable")


class World:
    """Physical memory, a frame pool and two page tables of one class."""

    def __init__(self, table_cls) -> None:
        self.cls = table_cls
        self.phys = PhysicalMemory(PHYS_FRAMES * PAGE_SIZE)
        self.pool = FramePool(self.phys, 0, POOL_FRAMES * PAGE_SIZE, NORMAL)
        self.iommu = Iommu(self.phys)          # disabled: DMA goes through
        self.stats = [PagingStats(), PagingStats()]
        self.tables = [self._new_table(0), self._new_table(1)]

    def _new_table(self, which: int) -> PageTable:
        pt = self.cls(self.phys, self.pool.alloc, self.pool.free,
                      stats=self.stats[which])
        for i, va in enumerate(VAS):
            pt.map(va, DATA_PAS[(i + which) % len(DATA_PAS)],
                   FLAG_CHOICES[(2 * i + which) % len(FLAG_CHOICES)])
        return pt

    def apply(self, op: tuple):
        """Run one operation; return its result or its exception."""
        kind, which, *args = op
        pt = self.tables[which]
        try:
            if kind == "map":
                va, pa, flags = args
                return pt.map(va, pa, flags)
            if kind == "unmap":
                return pt.unmap(args[0])
            if kind == "protect":
                va, flags = args
                return pt.protect(va, flags)
            if kind == "destroy":
                pt.destroy()
                self.tables[which] = self._new_table(which)
                return None
            if kind == "poke":
                pa, value = args
                return self.phys.write_u64(pa, value)
            if kind == "dma":
                pa, data = args
                return self.iommu.dma_write("nic", pa, data)
            va, write, user, fetch, set_accessed = args
            return pt.translate(va, write=write, user=user, fetch=fetch,
                                set_accessed=set_accessed)
        except Exception as exc:            # compared, not swallowed
            return (type(exc).__name__, str(exc),
                    {k: getattr(exc, k, None) for k in
                     ("vaddr", "write", "user", "present", "fetch")})

    def state(self):
        return ([s.as_dict() for s in self.stats],
                [[self.phys.read(f, PAGE_SIZE)
                  for f in sorted(pt._table_frames)] for pt in self.tables],
                self.phys.state_digest())


def _table_frames_by_level(pt: PageTable) -> dict[int, list[int]]:
    """Table frames reachable from the root, keyed by level."""
    found = {LEVELS - 1: [pt.root_pa]}
    for level in range(LEVELS - 1, 0, -1):
        below = found.setdefault(level - 1, [])
        for table in found[level]:
            for i in range(PAGE_SIZE // ENTRY_SIZE):
                entry = pt.phys.read_u64(table + i * ENTRY_SIZE)
                target = entry & _ADDR_MASK
                if (entry & F.PRESENT and target in pt._table_frames
                        and target not in below):
                    below.append(target)
    return found


def _concrete(world: World, draw) -> tuple:
    """Turn a drawn abstract step into an operation on ``world``'s state.

    Raw writes are aimed at the first world's table frames; both worlds
    hold the same bytes at the same addresses, so the step is the same
    for both.
    """
    kind, which, a, b, c, bits = draw
    pt = world.tables[which]
    va = VAS[a % len(VAS)]
    flags = FLAG_CHOICES[b % len(FLAG_CHOICES)]
    if kind == "map":
        return ("map", which, va, DATA_PAS[c % len(DATA_PAS)], flags)
    if kind == "unmap":
        return ("unmap", which, va)
    if kind == "protect":
        return ("protect", which, va, flags)
    if kind == "destroy":
        return ("destroy", which)
    if kind in ("poke", "dma"):
        levels = _table_frames_by_level(pt)
        if kind == "dma":
            # An intermediate (level 2 or 1) table, else the root.
            frames = levels.get(2, []) + levels.get(1, []) or [pt.root_pa]
        else:
            frames = sorted(pt._table_frames)
        frame = frames[a % len(frames)]
        slot = frame + (_index(va, c % LEVELS) * ENTRY_SIZE)
        old = world.phys.read_u64(slot)
        if kind == "dma":
            span = (bits % 4 + 1) * ENTRY_SIZE
            return ("dma", which, slot,
                    bytes(span) if b % 2 else
                    world.phys.read(frame + (c % 8) * ENTRY_SIZE, span))
        choice = b % 4
        if choice == 0:
            value = 0
        elif choice == 1:
            value = old ^ int(TOGGLES[bits % len(TOGGLES)])
        elif choice == 2:
            tables = sorted(pt._table_frames)
            value = tables[bits % len(tables)] | int(F.URW)
        else:
            value = DATA_PAS[bits % len(DATA_PAS)] | int(
                FLAG_CHOICES[bits % len(FLAG_CHOICES)])
        return ("poke", which, slot, value)
    offset = (bits * 8) % PAGE_SIZE
    # Reads, user mode and set_accessed are the common case.
    return ("translate", which, va + offset, bits % 3 == 0,
            bits % 4 != 0, bits % 5 == 0, bits % 7 != 0)


STEP = st.tuples(
    st.sampled_from(["translate"] * 12 + ["map", "map", "poke", "poke",
                                          "unmap", "protect", "destroy",
                                          "dma"]),
    st.integers(0, 1), st.integers(0, 63), st.integers(0, 63),
    st.integers(0, 63), st.integers(0, 255))


@settings(max_examples=150, deadline=None)
@given(st.lists(STEP, min_size=10, max_size=60))
def test_cached_tables_match_the_uncached_oracle(steps):
    cached, oracle = World(PageTable), World(OracleTable)
    for step in steps:
        op = _concrete(cached, step)
        assert cached.apply(op) == oracle.apply(op), op
        assert cached.state() == oracle.state(), op
        for pt in cached.tables:
            _assert_bases_match_their_ptes(pt)


def _assert_bases_match_their_ptes(pt: PageTable) -> None:
    """Each cached base is the page-base translation of its cached PTE."""
    for page_va, (pte, base) in pt._tcache.items():
        assert (base.pa, base.flags, base.refs) == (
            pte & _ADDR_MASK, F(pte & ~_ADDR_MASK & (2 ** 64 - 1)),
            LEVELS), hex(page_va)


def test_every_translate_combination_matches_the_oracle():
    # One page per flag choice, all in one leaf table.
    pages = [0x10_0000 + i * PAGE_SIZE for i in range(len(FLAG_CHOICES))]
    cached, oracle = World(PageTable), World(OracleTable)
    for world in (cached, oracle):
        for i, flags in enumerate(FLAG_CHOICES):
            world.tables[0].map(pages[i], DATA_PAS[i], flags)
    for round_ in range(3):          # cold walk, then warm cache hits
        for va in pages:
            for bits in range(16):
                op = ("translate", 0, va + 0x18, bool(bits & 1),
                      bool(bits & 2), bool(bits & 4), bool(bits & 8))
                assert cached.apply(op) == oracle.apply(op), (round_, op)
        assert cached.state() == oracle.state()
    assert cached.tables[0]._tcache, "no translation was cached"


# -- targeted invalidation tests ---------------------------------------------


@pytest.fixture
def phys():
    return PhysicalMemory(PHYS_FRAMES * PAGE_SIZE)


@pytest.fixture
def pool(phys):
    return FramePool(phys, 0, POOL_FRAMES * PAGE_SIZE, NORMAL)


@pytest.fixture
def pt(phys, pool):
    return PageTable(phys, pool.alloc, pool.free, stats=PagingStats())


VA = 0x4000_1000
PA, PA2 = DATA_PAS[0], DATA_PAS[1]


def _warm(pt, va=VA, **kwargs):
    """Translate twice, so the second result comes from the cache."""
    pt.translate(va, **kwargs)
    assert va in pt._tcache
    return pt.translate(va, **kwargs)


def test_leaf_pte_rewrite_through_phys_invalidates(pt, phys):
    pt.map(VA, PA, F.URW)
    _warm(pt)
    phys.write_u64(pt._find_entry(VA), PA2 | int(F.URW))
    assert not pt._tcache
    assert pt.translate(VA).pa == PA2


def test_bulk_write_over_a_level2_table_invalidates(pt, phys):
    pt.map(VA, PA, F.URW)
    _warm(pt)
    level2 = _table_frames_by_level(pt)[2][0]
    phys.write(level2, bytes(PAGE_SIZE))
    assert not pt._tcache
    with pytest.raises(PageFault) as exc:
        pt.translate(VA)
    assert not exc.value.present


def test_zero_frame_of_a_live_leaf_table_invalidates(pt, phys):
    pt.map(VA, PA, F.URW)
    _warm(pt)
    phys.zero_frame(_table_frames_by_level(pt)[0][0])
    assert not pt._tcache
    with pytest.raises(PageFault):
        pt.translate(VA)


def test_unmap_invalidates(pt):
    pt.map(VA, PA, F.URW)
    _warm(pt)
    pt.unmap(VA)
    assert not pt._tcache
    with pytest.raises(PageFault) as exc:
        pt.translate(VA)
    assert not exc.value.present


def test_protect_to_read_only_makes_the_next_write_fault(pt):
    pt.map(VA, PA, F.URW)
    _warm(pt, write=True)
    pt.protect(VA, F.UR)
    assert not pt._tcache
    with pytest.raises(PageFault) as exc:
        pt.translate(VA, write=True)
    assert exc.value.present and exc.value.write
    assert pt.translate(VA).pa == PA


def test_destroy_then_frame_reuse_by_a_new_table(phys, pool, pt):
    pt.map(VA, PA, F.URW)
    _warm(pt)
    frames = set(pt._table_frames)
    pt.destroy()
    assert not pt._tcache
    assert all(phys.table_caches.get(f // PAGE_SIZE) is not pt._tcache
               for f in frames)
    other = PageTable(phys, pool.alloc, pool.free)
    other.map(VA, PA2, F.URW)
    assert set(other._table_frames) == frames      # LIFO reuse
    assert other.translate(VA).pa == PA2
    phys.write_u64(other._find_entry(VA), PA | int(F.URW))
    assert other.translate(VA).pa == PA
    # The dead table's cache was never refilled through reused frames.
    assert not pt._tcache


def test_accessed_set_on_first_read_and_dirty_on_first_write(pt, phys):
    pt.map(VA, PA, F.URW)
    entry = pt._find_entry(VA)
    assert not phys.read_u64(entry) & (F.ACCESSED | F.DIRTY)
    first = pt.translate(VA)
    assert not first.flags & F.ACCESSED           # flags before the update
    assert phys.read_u64(entry) & F.ACCESSED
    assert not phys.read_u64(entry) & F.DIRTY
    hit = pt.translate(VA)                        # served from the cache
    assert hit.flags & F.ACCESSED
    assert pt._tcache
    written = pt.translate(VA, write=True)        # must walk to set D
    assert not written.flags & F.DIRTY
    assert phys.read_u64(entry) & F.DIRTY
    assert pt.translate(VA, write=True).flags & F.DIRTY


def test_redirected_intermediate_entry_is_not_cached(pt, phys, pool):
    # An entry pointed at a frame outside the table: writes there would
    # not invalidate, so the walk through it must not fill the cache.
    pt.map(VA, PA, F.URW)
    level1 = _table_frames_by_level(pt)[1][0]
    stray = pool.alloc()
    phys.write_u64(stray + _index(VA, 0) * ENTRY_SIZE, PA | int(F.URW))
    phys.write_u64(level1 + _index(VA, 1) * ENTRY_SIZE, stray | int(F.URW))
    assert pt.translate(VA).pa == PA
    assert VA not in pt._tcache
    phys.write_u64(stray + _index(VA, 0) * ENTRY_SIZE, PA2 | int(F.URW))
    assert pt.translate(VA).pa == PA2


def test_is_mapped_leaves_the_pte_bytes_alone(pt, phys):
    pt.map(VA, PA, F.URW)
    entry = pt._find_entry(VA)
    before = phys.read_u64(entry)
    digest = phys.state_digest()
    assert pt.is_mapped(VA)
    assert not pt.is_mapped(VA + 0x1000)
    assert phys.read_u64(entry) == before
    assert not before & F.ACCESSED
    assert phys.state_digest() == digest


# -- the cached page-base Translation -----------------------------------------


def _oracle_translation(va: int, flags=F.URW, write=False) -> Translation:
    """What the uncached walk returns for ``va`` mapped to PA with
    ``flags``, after an earlier walk has set ACCESSED (and DIRTY)."""
    world = World(OracleTable)
    pt = world.tables[0]
    pt.map(va & ~(PAGE_SIZE - 1), PA, flags)
    pt.translate(va, write=write)
    return pt.translate(va, write=write)


def test_two_aligned_hits_return_the_identical_translation(pt):
    pt.map(VA, PA, F.URW)
    first = _warm(pt)
    second = pt.translate(VA)
    assert second is first
    assert first == _oracle_translation(VA)
    assert (first.pa, first.refs) == (PA, LEVELS)
    _assert_bases_match_their_ptes(pt)


def test_an_unaligned_hit_carries_its_offset(pt):
    pt.map(VA, PA, F.URW)
    base = _warm(pt)
    hit = pt.translate(VA + 0x123)
    assert hit is not base
    assert hit == _oracle_translation(VA + 0x123)
    assert hit.pa == PA + 0x123 and hit.flags == base.flags
    assert pt.translate(VA) is base          # the base is left as it was
    assert base.pa == PA


def test_unmap_then_map_drops_the_cached_translation(pt):
    pt.map(VA, PA, F.URW)
    old = _warm(pt)
    pt.unmap(VA)
    assert not pt._tcache
    pt.map(VA, PA2, F.UR)
    new = _warm(pt)
    assert new is not old
    assert (new.pa, new.flags) == (PA2, F.UR | F.ACCESSED)
    assert (old.pa, old.flags) == (PA, F.URW | F.ACCESSED)


def test_protect_drops_the_cached_translation(pt):
    pt.map(VA, PA, F.URW)
    old = _warm(pt)
    pt.protect(VA, F.UR)
    assert not pt._tcache
    new = _warm(pt)
    assert new is not old
    assert (new.pa, new.flags) == (PA, F.UR | F.ACCESSED)
    assert old.flags == F.URW | F.ACCESSED


def test_raw_leaf_write_drops_the_cached_translation(pt, phys):
    pt.map(VA, PA, F.URW)
    old = _warm(pt)
    phys.write_u64(pt._find_entry(VA), PA2 | int(F.URX | F.ACCESSED))
    assert not pt._tcache
    new = _warm(pt)
    assert new is not old
    assert (new.pa, new.flags) == (PA2, F.URX | F.ACCESSED)


def test_the_walks_own_dirty_write_drops_the_cached_translation(pt):
    pt.map(VA, PA, F.URW)
    old = _warm(pt)
    assert not old.flags & F.DIRTY
    pt.translate(VA, write=True)            # walks: sets D in the PTE
    new = pt.translate(VA)
    assert new is not old
    assert new.flags == F.URW | F.ACCESSED | F.DIRTY
    assert new == _oracle_translation(VA, write=True)
    assert not old.flags & F.DIRTY          # a handed-out base never moves
    _assert_bases_match_their_ptes(pt)
