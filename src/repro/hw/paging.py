"""x86-64-style 4-level page tables, stored in simulated physical memory.

Page-table pages are real frames; entries are real 8-byte little-endian
PTEs with present / writable / user / accessed / dirty / NX bits and a
frame number.  The walker reports how many memory references it made so
the MMU can charge cycles, and the :class:`NestedTranslator` performs the
full two-dimensional walk (every guest-page-table access is itself
translated through the NPT), which is where the GU-Enclave / HU-Enclave
cost difference physically comes from.

Walks charge no simulated cycles, so the host-side shortcuts here are
free to skip work as long as every result, fault, counter and PTE byte
is the one a full walk would give: the walk uses plain int masks, and
each table keeps two exact caches.  The leaf-table memo maps each 2 MB
region to the leaf table its three upper entries lead to, so a walk,
``map`` or ``unmap`` reads only the leaf PTE (a paging-structure cache,
Intel SDM Vol. 3 §4.10.3).  The translation cache maps a page to its
leaf PTE and base translation (see :meth:`PageTable.translate`).  A
write to an upper table frame (root or intermediate) drops both; a
write to a leaf table frame drops only the translation cache.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import NestedPageFault, PageFault
from repro.hw.phys import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory

ENTRY_SIZE = 8
ENTRIES_PER_TABLE = PAGE_SIZE // ENTRY_SIZE
LEVELS = 4
VA_BITS = 48
_ADDR_MASK = 0x000F_FFFF_FFFF_F000


class PageTableFlags(enum.IntFlag):
    """PTE flag bits (subset of x86-64)."""

    PRESENT = 1 << 0
    WRITABLE = 1 << 1
    USER = 1 << 2
    ACCESSED = 1 << 5
    DIRTY = 1 << 6
    NX = 1 << 63

    # Convenience combinations.
    RW = PRESENT | WRITABLE
    URW = PRESENT | WRITABLE | USER
    URX = PRESENT | USER
    UR = PRESENT | USER | NX


# The same bits as plain ints: ``IntFlag`` arithmetic costs more than the
# PTE reads themselves, so the walk never builds an enum until it returns.
_P, _W, _U = 1 << 0, 1 << 1, 1 << 2
_A, _D = 1 << 5, 1 << 6
_NX = 1 << 63
_FLAG_BITS = ~_ADDR_MASK & (2 ** 64 - 1)
_OFFSET = PAGE_SIZE - 1
_VA_LIMIT = 1 << VA_BITS
# ``(va >> _SHIFTn) & _SLOT`` is the byte offset of va's entry in its
# level-n table (level 3 = root): its 9-bit index times ENTRY_SIZE.
_SLOT = (ENTRIES_PER_TABLE - 1) * ENTRY_SIZE
_SHIFT3, _SHIFT2, _SHIFT1, _SHIFT0 = 36, 27, 18, 9
_UPPER_SHIFTS = (_SHIFT3, _SHIFT2, _SHIFT1)
# ``va >> _REGION_SHIFT`` names va's 2 MB region: the three upper indexes.
_REGION_SHIFT = 21

# Flag bits -> PageTableFlags, filled on first use (building an IntFlag
# member costs about a microsecond; the enum keeps every value it has
# built anyway, so this adds no growth of its own).
_FLAGS: dict[int, PageTableFlags] = {}


def _flags_of(pte: int) -> PageTableFlags:
    bits = pte & _FLAG_BITS
    flags = _FLAGS.get(bits)
    if flags is None:
        flags = _FLAGS[bits] = PageTableFlags(bits)
    return flags


class Translation:
    """Result of a successful walk: shared and read-only.

    A translation-cache hit on a page-aligned VA returns the one object
    its :class:`PageTable` built when the walk filled the cache, so
    callers read ``pa``/``flags``/``refs`` and never assign to them.  A
    plain ``__slots__`` class: a frozen dataclass's ``__init__`` (one
    ``object.__setattr__`` per field) costs about three times as much.
    """

    __slots__ = ("pa", "flags", "refs")

    def __init__(self, pa: int, flags: PageTableFlags, refs: int) -> None:
        self.pa = pa
        self.flags = flags
        self.refs = refs        # page-table memory references made

    def _key(self) -> tuple[int, PageTableFlags, int]:
        return self.pa, self.flags, self.refs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Translation:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Translation(pa={self.pa!r}, flags={self.flags!r}, "
                f"refs={self.refs!r})")


class _UpperCaches:
    """The ``phys.table_caches`` value of a table's upper frames.

    A write to the root or an intermediate table can change where any
    walk of the table leads, so it drops the leaf-table memo and the
    translation cache together.  Always truthy: phys clears it on every
    write to such a frame.
    """

    __slots__ = ("leaves", "tcache")

    def __init__(self, leaves: dict[int, int],
                 tcache: dict[int, tuple[int, Translation]]) -> None:
        self.leaves = leaves
        self.tcache = tcache

    def clear(self) -> None:
        self.leaves.clear()
        self.tcache.clear()


@dataclass
class PagingStats:
    """Always-on lightweight walk counters for one page-table domain.

    Like :class:`~repro.hw.tlb.Tlb` hit/miss counts, these are plain int
    increments — cheap enough to leave unconditional — sampled by the
    telemetry hardware collectors when a machine record is taken.
    """

    walks: int = 0           # translate() calls
    refs: int = 0            # page-table memory references
    faults: int = 0          # walks that raised PageFault
    nested_walks: int = 0    # NestedTranslator two-dimensional walks
    nested_refs: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"walks": self.walks, "refs": self.refs,
                "faults": self.faults, "nested_walks": self.nested_walks,
                "nested_refs": self.nested_refs}


def _not_present(va: int, write: bool, user: bool, fetch: bool) -> PageFault:
    return PageFault(va, write=write, user=user, fetch=fetch, present=False)


def _check_permissions(va: int, bits: int, write: bool, user: bool,
                       fetch: bool) -> None:
    if write and not bits & _W:
        raise PageFault(va, write=True, user=user, present=True)
    if user and not bits & _U:
        raise PageFault(va, write=write, user=True, present=True)
    if fetch and bits & _NX:
        raise PageFault(va, fetch=True, user=user, present=True)


class PageTable:
    """One 4-level page table rooted at a physical frame.

    ``frame_alloc``/``frame_free`` supply intermediate table pages — the
    monitor passes its reserved pool, the primary OS its normal pool, so
    table memory is owned by whoever manages the mapping.
    """

    def __init__(self, phys: PhysicalMemory, frame_alloc: Callable[[], int],
                 frame_free: Callable[[int], None] | None = None,
                 stats: PagingStats | None = None,
                 asid: int | None = None) -> None:
        self.phys = phys
        self._alloc = frame_alloc
        self._free = frame_free
        self.stats = stats
        # Sanitizer metadata: ``asid`` ties this table to the TLB tag its
        # translations are cached under (enclave page tables use the
        # enclave id), so unmap/protect can be checked against shootdowns.
        # ``untrusted`` marks OS/process tables the sanitizer polices for
        # monitor/enclave-frame reachability.
        self.asid = asid
        self.untrusted = False
        # Every frame of this table is registered in phys.table_caches:
        # a leaf table under _tcache, the root and the intermediate
        # tables under _upper, and phys clears that value on any write
        # to the frame.
        #
        # Page VA -> (leaf PTE as it stands in memory, the Translation
        # of the page's base byte), for pages a walk with
        # set_accessed=True has translated through upper entries in
        # _leaves and a leaf table of this table's own.  Any write to one
        # of its frames clears it, so an entry is always the PTE a walk
        # would read now.
        self._tcache: dict[int, tuple[int, Translation]] = {}
        # va >> _REGION_SHIFT -> PA of the leaf table that the three
        # upper entries lead to, for regions whose three upper tables
        # are all this table's upper frames.  Any write to one of those
        # clears it, so an entry is always what the upper reads give now.
        self._leaves: dict[int, int] = {}
        self._upper = _UpperCaches(self._leaves, self._tcache)
        self.root_pa = frame_alloc()
        self._table_frames: set[int] = {self.root_pa}
        self._register(self.root_pa, upper=True)

    # -- mapping management --------------------------------------------------

    def map(self, va: int, pa: int, flags: PageTableFlags) -> None:
        """Install a 4 KB mapping ``va -> pa`` with ``flags``."""
        self._check_canonical(va)
        if va % PAGE_SIZE or pa % PAGE_SIZE:
            raise ValueError("map() requires page-aligned va and pa")
        sanitizer = self.phys.sanitizer
        if sanitizer is not None:
            sanitizer.on_pt_map(self, va, pa)
        entry_pa = self._ensure_entry(va)
        self.phys.write_u64(entry_pa, pa | int(flags) | _P)

    def unmap(self, va: int) -> int:
        """Remove the mapping for ``va``; returns the old PA."""
        entry_pa = self._find_entry(va)
        if entry_pa is None:
            raise PageFault(va, present=False)
        entry = self.phys.read_u64(entry_pa)
        if not entry & _P:
            raise PageFault(va, present=False)
        self.phys.write_u64(entry_pa, 0)
        old_pa = entry & _ADDR_MASK
        sanitizer = self.phys.sanitizer
        if sanitizer is not None:
            sanitizer.on_pt_unmap(self, va, old_pa)
        return old_pa

    def protect(self, va: int, flags: PageTableFlags) -> None:
        """Replace the permission flags of an existing mapping."""
        entry_pa = self._find_entry(va)
        if entry_pa is None:
            raise PageFault(va, present=False)
        entry = self.phys.read_u64(entry_pa)
        if not entry & _P:
            raise PageFault(va, present=False)
        self.phys.write_u64(entry_pa, (entry & _ADDR_MASK) | int(flags) | _P)
        sanitizer = self.phys.sanitizer
        if sanitizer is not None:
            sanitizer.on_pt_protect(self, va)

    def is_mapped(self, va: int) -> bool:
        """Whether a user read of ``va`` would translate; sets no A bit."""
        try:
            self.translate(va, set_accessed=False)
            return True
        except PageFault:
            return False

    def mappings(self) -> Iterator[tuple[int, int, PageTableFlags]]:
        """Iterate all (va, pa, flags) leaf mappings (for tests/debug)."""
        yield from self._walk_tables(self.root_pa, LEVELS - 1, 0)

    def _walk_tables(self, table_pa: int, level: int,
                     va_prefix: int) -> Iterator[tuple[int, int, PageTableFlags]]:
        for i in range(ENTRIES_PER_TABLE):
            entry = self.phys.read_u64(table_pa + i * ENTRY_SIZE)
            if not entry & _P:
                continue
            va = va_prefix | (i << (12 + 9 * level))
            if level == 0:
                yield va, entry & _ADDR_MASK, _flags_of(entry)
            else:
                yield from self._walk_tables(entry & _ADDR_MASK, level - 1, va)

    # -- translation ----------------------------------------------------------

    def translate(self, va: int, *, write: bool = False, user: bool = True,
                  fetch: bool = False, set_accessed: bool = True) -> Translation:
        """Walk the table; raise :class:`PageFault` on failure.

        A page in the translation cache is served without a walk when the
        walk could neither fault nor write: its cached PTE already has
        ACCESSED (and DIRTY, for a write) set and passes the permission
        checks.  Everything else walks.  A hit advances the stats exactly
        as the walk it stands in for would, and on a page-aligned ``va``
        returns the cached base :class:`Translation` itself.
        """
        cached = self._tcache.get(va & ~_OFFSET)
        if cached is not None:
            pte, base = cached
            need = (_A | _D | _W) if write else _A
            if user:
                need |= _U
            if pte & need == need and not (fetch and pte & _NX):
                stats = self.stats
                if stats is not None:
                    stats.walks += 1
                    stats.refs += LEVELS
                offset = va & _OFFSET
                if offset:
                    return Translation(base.pa | offset, base.flags, LEVELS)
                return base
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

    def _walk(self, va: int, *, write: bool, user: bool,
              fetch: bool, set_accessed: bool) -> Translation:
        if not 0 <= va < _VA_LIMIT:
            raise PageFault(va, present=False)
        t0 = self._leaf_table(va)
        if t0 is None:
            raise _not_present(va, write, user, fetch)
        pte_pa = t0 + ((va >> _SHIFT0) & _SLOT)
        pte = self.phys.read_u64(pte_pa)
        if not pte & _P:
            raise _not_present(va, write, user, fetch)
        _check_permissions(va, pte, write, user, fetch)
        result = Translation((pte & _ADDR_MASK) | (va & _OFFSET),
                             _flags_of(pte), LEVELS)
        if set_accessed:
            new = pte | (_A | _D if write else _A)
            if new != pte:
                self.phys.write_u64(pte_pa, new)
            # Cache only a walk whose four tables all clear this cache
            # when written: upper entries still memoized after the A/D
            # write, and a leaf table of this table's own.  A PTE an
            # attacker pointed elsewhere is walked every time.
            mine = self._tcache
            if (va >> _REGION_SHIFT in self._leaves
                    and self.phys.table_caches.get(t0 >> PAGE_SHIFT)
                    is mine):
                mine[va & ~_OFFSET] = (
                    new, Translation(new & _ADDR_MASK, _flags_of(new), LEVELS))
        return result

    # -- internals -------------------------------------------------------------

    def _register(self, frame_pa: int, *, upper: bool) -> None:
        """Route writes to table frame ``frame_pa`` to this table's caches.

        A write to an ``upper`` frame (the root or an intermediate table)
        drops the leaf-table memo and the translation cache; a write to a
        leaf table drops the translation cache only.
        """
        caches = self.phys.table_caches
        frame = frame_pa >> PAGE_SHIFT
        previous = caches.get(frame)
        if previous is not None:
            previous.clear()
        caches[frame] = self._upper if upper else self._tcache

    def _leaf_table(self, va: int) -> int | None:
        """PA of ``va``'s leaf table; None if an upper entry is not present.

        A region in the memo costs one dict lookup.  Otherwise the three
        upper entries are read, and the result is memoized when all three
        tables read are this table's upper frames, whose writes clear
        the memo.
        """
        region = va >> _REGION_SHIFT
        t0 = self._leaves.get(region)
        if t0 is not None:
            return t0
        read = self.phys.read_u64
        t3 = self.root_pa
        entry = read(t3 + ((va >> _SHIFT3) & _SLOT))
        if not entry & _P:
            return None
        t2 = entry & _ADDR_MASK
        entry = read(t2 + ((va >> _SHIFT2) & _SLOT))
        if not entry & _P:
            return None
        t1 = entry & _ADDR_MASK
        entry = read(t1 + ((va >> _SHIFT1) & _SLOT))
        if not entry & _P:
            return None
        t0 = entry & _ADDR_MASK
        upper = self._upper
        owner = self.phys.table_caches.get
        if (owner(t3 >> PAGE_SHIFT) is upper
                and owner(t2 >> PAGE_SHIFT) is upper
                and owner(t1 >> PAGE_SHIFT) is upper):
            self._leaves[region] = t0
        return t0

    def _ensure_entry(self, va: int) -> int:
        """Walk down, allocating intermediate tables; return the leaf PTE PA."""
        table_pa = self._leaf_table(va)
        if table_pa is None:
            # An upper entry is missing.  This walk writes upper frames,
            # so it memoizes nothing; the next lookup reads and fills.
            table_pa = self.root_pa
            for shift in _UPPER_SHIFTS:
                entry_pa = table_pa + ((va >> shift) & _SLOT)
                entry = self.phys.read_u64(entry_pa)
                if not entry & _P:
                    new_table = self._alloc()
                    self._table_frames.add(new_table)
                    self._register(new_table, upper=shift != _SHIFT1)
                    # Intermediate entries: present+writable+user; leaf
                    # flags rule.
                    self.phys.write_u64(entry_pa, new_table | _P | _W | _U)
                    table_pa = new_table
                else:
                    table_pa = entry & _ADDR_MASK
        return table_pa + ((va >> _SHIFT0) & _SLOT)

    def _find_entry(self, va: int) -> int | None:
        """Return the leaf PTE PA for ``va`` or None if tables are missing."""
        self._check_canonical(va)
        table_pa = self._leaf_table(va)
        if table_pa is None:
            return None
        return table_pa + ((va >> _SHIFT0) & _SLOT)

    def destroy(self) -> None:
        """Free all table frames back to the allocator."""
        if self._free is None:
            return
        caches = self.phys.table_caches
        for frame in self._table_frames:
            registered = caches.get(frame >> PAGE_SHIFT)
            if registered is self._tcache or registered is self._upper:
                del caches[frame >> PAGE_SHIFT]
        self._upper.clear()
        for frame in sorted(self._table_frames, reverse=True):
            self._free(frame)
        self._table_frames.clear()

    @staticmethod
    def _check_canonical(va: int) -> None:
        if not 0 <= va < _VA_LIMIT:
            raise PageFault(va, present=False)


class NestedTranslator:
    """Two-dimensional (guest PT + nested PT) address translation.

    Mirrors hardware nested paging: each guest-page-table access during the
    GPT walk is itself a guest-physical address that must be translated
    through the NPT, so a full 4+4-level walk makes up to 24 references.
    """

    def __init__(self, gpt: PageTable, npt: PageTable,
                 stats: PagingStats | None = None) -> None:
        self.gpt = gpt
        self.npt = npt
        self.stats = stats

    def translate(self, gva: int, *, write: bool = False, user: bool = True,
                  fetch: bool = False) -> Translation:
        stats = self.stats
        if stats is not None:
            stats.nested_walks += 1
        read = self.gpt.phys.read_u64
        npt_translate = self._npt_translate
        refs = 0
        table_gpa = self.gpt.root_pa
        for shift in _UPPER_SHIFTS:
            # The GPT table page itself lives at a guest-physical address:
            # translate it through the NPT first.
            table_hpa, npt_refs = npt_translate(table_gpa, write=False)
            entry = read(table_hpa + ((gva >> shift) & _SLOT))
            refs += npt_refs + 1
            if not entry & _P:
                raise _not_present(gva, write, user, fetch)
            table_gpa = entry & _ADDR_MASK
        table_hpa, npt_refs = npt_translate(table_gpa, write=False)
        entry = read(table_hpa + ((gva >> _SHIFT0) & _SLOT))
        refs += npt_refs + 1
        if not entry & _P:
            raise _not_present(gva, write, user, fetch)
        _check_permissions(gva, entry, write, user, fetch)
        leaf_gpa = (entry & _ADDR_MASK) | (gva & _OFFSET)
        leaf_hpa, npt_refs = npt_translate(leaf_gpa, write=write)
        refs += npt_refs
        if stats is not None:
            stats.nested_refs += refs
        return Translation(pa=leaf_hpa, flags=_flags_of(entry), refs=refs)

    def _npt_translate(self, gpa: int, *, write: bool) -> tuple[int, int]:
        try:
            result = self.npt.translate(gpa, write=write, user=True)
        except PageFault as fault:
            raise NestedPageFault(gpa, write=write,
                                  present=fault.present) from fault
        return result.pa, result.refs
