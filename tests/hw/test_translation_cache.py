"""The int-mask walk, the translation cache and the leaf-table memo are exact.

A differential property test runs the same random sequence of table
edits, raw physical writes, DMA and translations against the real
``PageTable`` and against an oracle table that reads every level every
time with the original ``IntFlag`` code, and compares every result,
fault, counter and byte of memory; after each step every memoized leaf
table must be where a fresh read of the upper entries leads.  Targeted
tests pin each way a write must invalidate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageFault
from repro.hw.iommu import Iommu
from repro.hw.paging import (_ADDR_MASK, _REGION_SHIFT as REGION_SHIFT,
                             ENTRY_SIZE, ENTRIES_PER_TABLE, LEVELS,
                             PageTable, PageTableFlags, PagingStats,
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
    """The walk as it was before the rewrite: IntFlag masks, no caches.

    ``map``/``unmap``/``protect`` read the upper entries every time too.
    """

    def _leaf_table(self, va):
        return _path(self, va).get(0)

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


def _path(pt: PageTable, va: int) -> dict[int, int]:
    """The table at each level of ``va``'s walk (level 3 = root), read
    now with no memo, down to the first entry that is not present."""
    path = {3: pt.root_pa}
    for level in (3, 2, 1):
        entry = pt.phys.read_u64(path[level] + _index(va, level) * ENTRY_SIZE)
        if not entry & PageTableFlags.PRESENT:
            break
        path[level - 1] = entry & _ADDR_MASK
    return path


def _assert_leaves_match_a_fresh_read(pt: PageTable) -> None:
    """Each memoized leaf table is where the upper entries lead now."""
    for region, leaf in pt._leaves.items():
        assert _path(pt, region << REGION_SHIFT).get(0) == leaf, \
            hex(region << REGION_SHIFT)


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
            _assert_leaves_match_a_fresh_read(pt)


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
    assert cached.tables[0]._leaves, "no leaf table was memoized"


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
    assert not pt._tcache and not pt._leaves
    registered = [phys.table_caches.get(f // PAGE_SIZE) for f in frames]
    assert not any(r is pt._tcache or r is pt._upper for r in registered)
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


# -- the leaf-table memo ------------------------------------------------------


REGION = VA >> REGION_SHIFT


def _stray_path(pool, phys, pa):
    """A level-1 table and a leaf table outside any page table, mapping
    VA to ``pa``; returns ``(level1, leaf)``."""
    level1, leaf = pool.alloc(), pool.alloc()
    phys.write_u64(level1 + _index(VA, 1) * ENTRY_SIZE, leaf | int(F.URW))
    phys.write_u64(leaf + _index(VA, 0) * ENTRY_SIZE, pa | int(F.URW))
    return level1, leaf


def test_frames_are_registered_by_kind(pt, phys):
    pt.map(VA, PA, F.URW)
    levels = _table_frames_by_level(pt)
    caches = phys.table_caches
    for level in (3, 2, 1):
        for frame in levels[level]:
            assert caches[frame // PAGE_SIZE] is pt._upper, level
    assert len(levels[0]) == 1
    assert caches[levels[0][0] // PAGE_SIZE] is pt._tcache
    assert set(pt._table_frames) == {f for fs in levels.values() for f in fs}


def test_a_fault_in_a_memoized_region_reads_only_leaf_ptes(pt, phys,
                                                            monkeypatch):
    pt.map(VA, PA, F.URW)
    _warm(pt)
    reads = []
    read = phys.read_u64
    monkeypatch.setattr(phys, "read_u64",
                        lambda pa: reads.append(pa) or read(pa))
    leaf = _path(pt, VA)[0]
    reads.clear()
    # The swap pattern: evict (unmap), fault on the page, commit (map),
    # retry the access.
    pt.unmap(VA)
    with pytest.raises(PageFault):
        pt.translate(VA)
    pt.map(VA, PA2, F.URW)
    assert pt.translate(VA).pa == PA2
    assert len(reads) == 3
    assert all(pa & ~(PAGE_SIZE - 1) == leaf for pa in reads)
    assert pt._leaves == {REGION: leaf}


def test_a_leaf_pte_write_keeps_the_memo(pt, phys):
    pt.map(VA, PA, F.URW)
    _warm(pt)
    leaves = dict(pt._leaves)
    assert REGION in leaves
    phys.write_u64(pt._find_entry(VA), PA2 | int(F.URW))
    assert not pt._tcache
    assert pt._leaves == leaves
    pt.unmap(VA)
    pt.map(VA, PA, F.UR)
    pt.protect(VA, F.URW)
    assert pt._leaves == leaves


@pytest.mark.parametrize("level", [1, 2])
def test_repointing_an_upper_entry_drops_the_memo(pt, phys, pool, level):
    pt.map(VA, PA, F.URW)
    _warm(pt)
    old_leaf = pt._leaves[REGION]
    stray1, stray0 = _stray_path(pool, phys, PA2)
    phys.write_u64(_path(pt, VA)[level] + _index(VA, level) * ENTRY_SIZE,
                   (stray0 if level == 1 else stray1) | int(F.URW))
    assert not pt._leaves and not pt._tcache
    stray_pte = stray0 + _index(VA, 0) * ENTRY_SIZE
    assert pt.translate(VA).pa == PA2                   # translate follows
    assert pt.unmap(VA) == PA2                          # unmap follows
    assert phys.read_u64(stray_pte) == 0
    pt.map(VA, PA, F.UR)                                # map follows
    assert phys.read_u64(stray_pte) == PA | int(F.UR)
    assert phys.read_u64(old_leaf + _index(VA, 0) * ENTRY_SIZE) & _ADDR_MASK \
        == PA                                           # old leaf untouched
    _assert_leaves_match_a_fresh_read(pt)


def test_an_upper_entry_aimed_at_a_foreign_table_is_never_memoized(
        pt, phys, pool):
    pt.map(VA, PA, F.URW)
    stray1, _ = _stray_path(pool, phys, PA2)
    phys.write_u64(_path(pt, VA)[2] + _index(VA, 2) * ENTRY_SIZE,
                   stray1 | int(F.URW))
    assert pt.translate(VA).pa == PA2
    assert pt._find_entry(VA) is not None
    assert REGION not in pt._leaves and VA not in pt._tcache
    # A write to the foreign table clears nothing, so nothing may rely on
    # what it held.
    _, other_leaf = _stray_path(pool, phys, PA)
    phys.write_u64(stray1 + _index(VA, 1) * ENTRY_SIZE,
                   other_leaf | int(F.URW))
    assert pt.translate(VA).pa == PA


def test_an_upper_entry_aimed_at_an_own_leaf_table_is_never_memoized(
        pt, phys, pool):
    pt.map(VA, PA, F.URW)
    path = _path(pt, VA)
    leaf, level2 = path[0], path[2]
    _, stray0 = _stray_path(pool, phys, PA2)
    # Read as a level-1 table, the leaf's entry for VA leads to stray0.
    phys.write_u64(leaf + _index(VA, 1) * ENTRY_SIZE, stray0 | int(F.URW))
    phys.write_u64(level2 + _index(VA, 2) * ENTRY_SIZE, leaf | int(F.URW))
    assert pt.translate(VA).pa == PA2
    assert REGION not in pt._leaves and VA not in pt._tcache
    # A leaf-frame write clears only the translation cache; the walk
    # must still see it.
    _, other = _stray_path(pool, phys, PA)
    phys.write_u64(leaf + _index(VA, 1) * ENTRY_SIZE, other | int(F.URW))
    assert pt.translate(VA).pa == PA


def test_re_registering_a_frame_clears_the_old_tables_memo(phys, pool, pt):
    far = 0x7FFF_FFFF_F000              # shares only the root with VA
    pt.map(VA, PA, F.URW)
    pt.map(far, PA2, F.URW)
    _warm(pt)
    _warm(pt, far)
    other = PageTable(phys, pool.alloc, pool.free)
    other._register(_path(pt, VA)[1], upper=False)
    assert not pt._leaves and not pt._tcache
    # VA's level-1 table now clears another table's caches: VA's region
    # is walked in full from here on; the other region is memoized again.
    assert pt.translate(VA).pa == PA and pt.translate(far).pa == PA2
    assert pt._leaves == {far >> REGION_SHIFT: _path(pt, far)[0]}
    # A leaf frame that moves drops the translation cache; the memo
    # records where upper entries lead, not what a leaf table holds.
    other._register(_path(pt, far)[0], upper=True)
    assert not pt._tcache and far >> REGION_SHIFT in pt._leaves
    assert pt.translate(far).pa == PA2 and far not in pt._tcache

