"""Simulated physical memory with frame ownership.

Physical memory is an array of 4 KB frames, lazily materialized as
``bytearray`` pages.  Every frame carries an *owner tag* — free, normal
(primary-OS-managed), monitor (RustMonitor's reserved region) or enclave
(with an enclave id).  Ownership is what the paper's security requirements
R-1..R-3 are about; the MMU, the monitor, and the IOMMU consult it.

The frame store is private to this module.  ``read`` and ``write`` take
one slice of one frame when the range fits in it, and ``read_pages``
runs :func:`repro.hw.memaccess.copy_in`'s page loop here, beside the
frames, so a copied page costs the caller's ``translate``, one frame
lookup and one snapshot of the page.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable

from repro.errors import PhysicalMemoryError

PAGE_SIZE = 4096
PAGE_SHIFT = 12

# set_owner calls tagging at least this many frames at once are kept as
# a (start, end, owner) region instead of one dict entry per frame; the
# monitor's multi-GB reserved-memory tag at boot is the case that counts.
_REGION_MIN_PAGES = 4096

# What a never-written frame reads as; shared by every copy that needs
# a whole zero page (bytes are immutable, so sharing is safe).
_ZERO_PAGE = bytes(PAGE_SIZE)


class OwnerKind(enum.Enum):
    """Who owns a physical frame."""

    FREE = "free"
    NORMAL = "normal"          # primary-OS managed memory
    MONITOR = "monitor"        # RustMonitor's private reserved memory
    ENCLAVE = "enclave"        # enclave memory (tagged with an enclave id)
    DEVICE = "device"          # MMIO / device-visible buffers


@dataclass(frozen=True)
class Owner:
    """A frame owner tag; ``enclave_id`` is set only for ENCLAVE frames."""

    kind: OwnerKind
    enclave_id: int | None = None

    def __post_init__(self) -> None:
        if (self.kind is OwnerKind.ENCLAVE) != (self.enclave_id is not None):
            raise ValueError("enclave_id must be set iff kind is ENCLAVE")


FREE = Owner(OwnerKind.FREE)
NORMAL = Owner(OwnerKind.NORMAL)
MONITOR = Owner(OwnerKind.MONITOR)


# Enclave id -> its one Owner tag: every EPC allocation tags a frame,
# and building a validated frozen dataclass each time costs more than
# the lookup.  One entry per enclave id ever used.
_ENCLAVE_OWNERS: dict[int, Owner] = {}


def enclave_owner(enclave_id: int) -> Owner:
    """Owner tag for a frame belonging to enclave ``enclave_id``."""
    owner = _ENCLAVE_OWNERS.get(enclave_id)
    if owner is None:
        owner = _ENCLAVE_OWNERS[enclave_id] = Owner(OwnerKind.ENCLAVE,
                                                    enclave_id)
    return owner


class PhysicalMemory:
    """Byte-addressable physical memory made of owned 4 KB frames."""

    def __init__(self, size: int) -> None:
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError("physical memory size must be a positive "
                             "multiple of the page size")
        self.size = size
        self.num_frames = size // PAGE_SIZE
        self._frames: dict[int, bytearray] = {}
        # Per-frame owner overrides.  Frames covered by a bulk region may
        # carry an explicit FREE entry here: it shadows the region tag
        # (externally those frames simply read as FREE, like any other).
        self._owners: dict[int, Owner] = {}
        # Sorted, disjoint (start_frame, end_frame, owner) bulk tags;
        # _region_starts mirrors the start frames for bisection.
        self._regions: list[tuple[int, int, Owner]] = []
        self._region_starts: list[int] = []
        # Set by repro.sanitizer when REPRO_SANITIZE=1; every ownership
        # transition is mirrored into its shadow model.
        self.sanitizer = None
        # Bumped by every set_owner: anything that caches an owner_of
        # answer (the monitor's normal-frame memo) drops it when this
        # moves.
        self.owner_epoch = 0
        # Frame number -> the caches (anything with ``clear()``) of the
        # page table whose entries live in that frame (see
        # repro.hw.paging.PageTable).  write, write_u64 and zero_frame
        # clear them whenever they touch the frame, so no cached walk
        # outlives the entries it copies.
        self.table_caches: dict[int, Any] = {}

    # -- ownership ---------------------------------------------------------

    def owner_of(self, pa: int) -> Owner:
        """Owner tag of the frame containing physical address ``pa``."""
        frame = self._frame_no(pa)
        owner = self._owners.get(frame)
        if owner is not None:
            return owner
        region = self._region_covering(frame)
        return region[2] if region is not None else FREE

    def owned_frames(self) -> MappingProxyType:
        """Read-only frame-number -> Owner mapping (FREE frames absent)."""
        if not self._regions:
            return MappingProxyType(self._owners)
        combined: dict[int, Owner] = {}
        for start, end, owner in self._regions:
            combined.update(dict.fromkeys(range(start, end), owner))
        for frame, owner in self._owners.items():
            if owner.kind is OwnerKind.FREE:
                combined.pop(frame, None)
            else:
                combined[frame] = owner
        return MappingProxyType(combined)

    def set_owner(self, pa: int, owner: Owner, npages: int = 1) -> None:
        """Tag ``npages`` frames starting at ``pa`` with ``owner``."""
        frame = self._frame_no(pa)
        if pa % PAGE_SIZE:
            raise PhysicalMemoryError(f"unaligned frame base {pa:#x}")
        if frame + npages > self.num_frames:
            raise PhysicalMemoryError("frame range beyond physical memory")
        self.owner_epoch += 1
        if owner.kind is OwnerKind.FREE:
            if npages >= _REGION_MIN_PAGES and self._regions:
                self._clear_range(frame, frame + npages)
            else:
                pop = self._owners.pop
                covering = self._region_covering
                for i in range(frame, frame + npages):
                    if covering(i) is not None:
                        self._owners[i] = FREE
                    else:
                        pop(i, None)
        elif npages >= _REGION_MIN_PAGES:
            self._clear_range(frame, frame + npages)
            self._insert_region(frame, frame + npages, owner)
        elif npages == 1:
            self._owners[frame] = owner
        else:
            self._owners.update(dict.fromkeys(range(frame, frame + npages),
                                              owner))
        if self.sanitizer is not None:
            self.sanitizer.on_set_owner(frame, owner, npages)

    def _region_covering(self, frame: int
                         ) -> tuple[int, int, Owner] | None:
        if not self._regions:
            return None
        i = bisect_right(self._region_starts, frame) - 1
        if i >= 0:
            region = self._regions[i]
            if frame < region[1]:
                return region
        return None

    def _insert_region(self, start: int, end: int, owner: Owner) -> None:
        i = bisect_right(self._region_starts, start)
        self._regions.insert(i, (start, end, owner))
        self._region_starts.insert(i, start)

    def _clear_range(self, start: int, end: int) -> None:
        """Remove every override and region tag in [start, end)."""
        if self._regions:
            kept: list[tuple[int, int, Owner]] = []
            for r_start, r_end, r_owner in self._regions:
                if r_end <= start or r_start >= end:
                    kept.append((r_start, r_end, r_owner))
                    continue
                if r_start < start:
                    kept.append((r_start, start, r_owner))
                if r_end > end:
                    kept.append((end, r_end, r_owner))
            self._regions = kept
            self._region_starts = [r[0] for r in kept]
        if self._owners:
            span = end - start
            if span < len(self._owners):
                pop = self._owners.pop
                for i in range(start, end):
                    pop(i, None)
            else:
                for f in [f for f in self._owners if start <= f < end]:
                    del self._owners[f]

    # -- data --------------------------------------------------------------

    def read(self, pa: int, length: int) -> bytes:
        """Read ``length`` bytes at physical address ``pa``."""
        self._check_range(pa, length)
        offset = pa & (PAGE_SIZE - 1)
        if offset + length <= PAGE_SIZE:
            # Single-frame read: one copy, no accumulator.
            page = self._frames.get(pa >> PAGE_SHIFT)
            if page is None:
                return bytes(length)
            return memoryview(page)[offset:offset + length].tobytes()
        out = bytearray(length)
        written = 0
        while length:
            frame, offset = divmod(pa, PAGE_SIZE)
            chunk = min(length, PAGE_SIZE - offset)
            page = self._frames.get(frame)
            if page is not None:
                out[written:written + chunk] = page[offset:offset + chunk]
            pa += chunk
            length -= chunk
            written += chunk
        return bytes(out)

    def read_pages(self, translate: Callable[[int], int], va: int,
                   size: int) -> bytes:
        """Read ``size`` bytes at virtual address ``va``, page by page.

        ``translate`` maps a VA to the PA of the same byte and is called
        once per page, in ascending order; each page's bytes are taken
        right after its own translate and before the next, so a callback
        that writes memory (an A/D-bit update, a fault handler fixing up
        a page) is seen exactly where it lands.  A translated range that
        crosses a frame or leaves physical memory raises
        :class:`PhysicalMemoryError`.  This is the one page loop
        :func:`repro.hw.memaccess.copy_in` runs, and it builds the result
        in one pass: a whole page costs the callback, one frame lookup
        and either the shared zero page or one snapshot of the frame;
        one ``b"".join`` ends it.
        """
        if size < 0:
            raise PhysicalMemoryError("negative length")
        parts: list[bytes | bytearray] = []
        end = va + size
        head = min(PAGE_SIZE - (va & (PAGE_SIZE - 1)), size)
        if head < PAGE_SIZE:
            # A partial first page, from va to its page's end or to end.
            if head:
                parts.append(self._read_part(translate(va), head))
            va += head
        frames = self._frames
        last = self.size - PAGE_SIZE     # the highest whole-frame base
        zero = _ZERO_PAGE
        append = parts.append
        whole_end = end - (end & (PAGE_SIZE - 1))
        for page_va in range(va, whole_end, PAGE_SIZE):
            pa = translate(page_va)
            if pa & (PAGE_SIZE - 1) or not 0 <= pa <= last:
                self._read_part(pa, PAGE_SIZE)      # raises the error
            page = frames.get(pa >> PAGE_SHIFT)
            append(zero if page is None else bytes(page))
        if va <= whole_end < end:
            # A partial last page, from its base to end.
            append(self._read_part(translate(whole_end), end - whole_end))
        return b"".join(parts)

    def _read_part(self, pa: int, chunk: int) -> bytes | bytearray:
        """``chunk`` bytes of one page of :meth:`read_pages` at ``pa``,
        which must lie inside one frame of memory."""
        offset = pa & (PAGE_SIZE - 1)
        if offset + chunk > PAGE_SIZE:
            raise PhysicalMemoryError(
                f"copy of {chunk} bytes at {pa:#x} crosses a frame")
        if not 0 <= pa <= self.size - chunk:
            raise PhysicalMemoryError(
                f"physical range [{pa:#x}, {pa + chunk:#x}) out of bounds")
        page = self._frames.get(pa >> PAGE_SHIFT)
        if page is None:
            return _ZERO_PAGE[:chunk]
        return page[offset:offset + chunk]

    def write(self, pa: int, data: bytes) -> None:
        """Write ``data`` at physical address ``pa``."""
        length = len(data)
        offset = pa & (PAGE_SIZE - 1)
        if offset + length <= PAGE_SIZE:
            # Single-frame write (every page of memaccess.copy_out): the
            # bounds check of _check_range, then one slice assignment.
            if not 0 <= pa <= self.size - length:
                raise PhysicalMemoryError(
                    f"physical range [{pa:#x}, {pa + length:#x}) "
                    f"out of bounds")
            if not length:
                return                  # nothing written, no frame made
            frame = pa >> PAGE_SHIFT
            cache = self.table_caches.get(frame)
            if cache:
                cache.clear()
            page = self._frames.get(frame)
            if page is None:
                page = self._frames[frame] = bytearray(PAGE_SIZE)
            page[offset:offset + length] = data
            return
        self._check_range(pa, length)
        view = memoryview(data)
        while view:
            frame, offset = divmod(pa, PAGE_SIZE)
            chunk = min(len(view), PAGE_SIZE - offset)
            cache = self.table_caches.get(frame)
            if cache:
                cache.clear()
            page = self._frames.get(frame)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._frames[frame] = page
            page[offset:offset + chunk] = view[:chunk]
            pa += chunk
            view = view[chunk:]

    def read_u64(self, pa: int) -> int:
        # Page-table walks hammer this; a qword never straddles frames
        # when aligned, so take the direct single-frame slice.
        if pa & 7 == 0:
            if not 0 <= pa <= self.size - 8:
                raise PhysicalMemoryError(
                    f"physical range [{pa:#x}, {pa + 8:#x}) out of bounds")
            page = self._frames.get(pa >> PAGE_SHIFT)
            if page is None:
                return 0
            offset = pa & (PAGE_SIZE - 1)
            return int.from_bytes(page[offset:offset + 8], "little")
        return int.from_bytes(self.read(pa, 8), "little")

    def write_u64(self, pa: int, value: int) -> None:
        data = (value & (2 ** 64 - 1)).to_bytes(8, "little")
        if pa & 7 == 0:
            if not 0 <= pa <= self.size - 8:
                raise PhysicalMemoryError(
                    f"physical range [{pa:#x}, {pa + 8:#x}) out of bounds")
            frame = pa >> PAGE_SHIFT
            cache = self.table_caches.get(frame)
            if cache:
                cache.clear()
            page = self._frames.get(frame)
            if page is None:
                page = self._frames[frame] = bytearray(PAGE_SIZE)
            offset = pa & (PAGE_SIZE - 1)
            page[offset:offset + 8] = data
            return
        self.write(pa, data)

    def zero_frame(self, pa: int) -> None:
        """Scrub a frame (used when recycling enclave pages)."""
        if pa % PAGE_SIZE:
            raise PhysicalMemoryError(f"unaligned frame base {pa:#x}")
        self._check_range(pa, PAGE_SIZE)
        cache = self.table_caches.get(pa // PAGE_SIZE)
        if cache:
            cache.clear()
        self._frames.pop(pa // PAGE_SIZE, None)

    # -- state hashing -----------------------------------------------------

    def state_digest(self) -> str:
        """A canonical hash of frame ownership and frame contents.

        A frame holding all zeroes hashes the same as an absent frame:
        ``zero_frame`` pops the backing page while a write of zeroes
        leaves it resident, and the two must not be distinguishable.
        """
        import hashlib
        h = hashlib.sha256()
        owners = self._owners if not self._regions else self.owned_frames()
        # Bulk-tagged regions mean millions of frames share a handful of
        # Owner objects; caching the formatted tail and hashing joined
        # chunks feeds hashlib the exact same byte stream as the original
        # one-update-per-frame loop (digests are unchanged) at a fraction
        # of the cost.
        tails: dict[Owner, str] = {}
        frames = sorted(owners)
        for base in range(0, len(frames), 1 << 16):
            parts = []
            for frame in frames[base:base + (1 << 16)]:
                owner = owners[frame]
                tail = tails.get(owner)
                if tail is None:
                    tail = tails[owner] = (f"{owner.kind.value}:"
                                           f"{owner.enclave_id}\n")
                parts.append(f"own:{frame}:{tail}")
            h.update("".join(parts).encode())
        zero = bytes(PAGE_SIZE)
        for frame in sorted(self._frames):
            page = self._frames[frame]
            if page == zero:
                continue
            h.update(f"mem:{frame}:".encode())
            h.update(hashlib.sha256(page).digest())
            h.update(b"\n")
        return h.hexdigest()

    # -- helpers -----------------------------------------------------------

    def _frame_no(self, pa: int) -> int:
        if not 0 <= pa < self.size:
            raise PhysicalMemoryError(f"physical address {pa:#x} out of range")
        return pa >> PAGE_SHIFT

    def _check_range(self, pa: int, length: int) -> None:
        if length < 0:
            raise PhysicalMemoryError("negative length")
        if not 0 <= pa <= self.size - length:
            raise PhysicalMemoryError(
                f"physical range [{pa:#x}, {pa + length:#x}) out of bounds")


class FramePool:
    """An allocator over a contiguous physical region.

    RustMonitor's reserved memory and the primary OS's normal memory each
    manage their own pool ("RustMonitor manages the reserved physical
    memory by maintaining a list of free pages", Sec 5.1).
    """

    def __init__(self, phys: PhysicalMemory, base: int, size: int,
                 owner: Owner) -> None:
        if base % PAGE_SIZE or size % PAGE_SIZE:
            raise ValueError("pool base/size must be page aligned")
        self.phys = phys
        self.base = base
        self.size = size
        self.default_owner = owner
        # The free list is conceptually ``[top, top-P, ..., base]`` with
        # freed frames appended, popped from the end — i.e. untouched
        # frames hand out ascending from ``base`` and frees are reused
        # LIFO first.  It is represented lazily (a cursor over the
        # never-allocated tail plus an explicit recycled list) so pool
        # construction over gigabytes is O(1); allocation order and the
        # state digest are unchanged.
        self._cursor = base                  # next never-allocated PA
        self._recycled: list[int] = []

    @property
    def free_pages(self) -> int:
        untouched = (self.base + self.size - self._cursor) // PAGE_SIZE
        return untouched + len(self._recycled)

    def alloc(self, owner: Owner | None = None) -> int:
        """Pop a free frame, tag it, scrub it, and return its base PA."""
        if self._recycled:
            pa = self._recycled.pop()
        elif self._cursor < self.base + self.size:
            pa = self._cursor
            self._cursor += PAGE_SIZE
        else:
            raise PhysicalMemoryError("frame pool exhausted")
        self.phys.set_owner(pa, owner or self.default_owner)
        self.phys.zero_frame(pa)
        return pa

    def free(self, pa: int) -> None:
        """Scrub a frame and return it to the pool."""
        if not self.base <= pa < self.base + self.size:
            raise PhysicalMemoryError(
                f"frame {pa:#x} does not belong to this pool")
        self.phys.zero_frame(pa)
        self.phys.set_owner(pa, FREE)
        self._recycled.append(pa)

    def contains(self, pa: int) -> bool:
        return self.base <= pa < self.base + self.size

    def state_digest(self) -> str:
        """A hash of the free list (order included: it decides the next
        allocation, so it is behavioral state, not bookkeeping).

        The byte stream is the explicit free list this pool represents
        (untouched frames descending, then recycled frames in free
        order), so digests match the eager-list implementation exactly.
        """
        import hashlib
        import struct
        untouched = range(self.base + self.size - PAGE_SIZE,
                          self._cursor - 1, -PAGE_SIZE)
        h = hashlib.sha256(struct.pack(f"<{len(untouched)}Q", *untouched))
        h.update(struct.pack(f"<{len(self._recycled)}Q", *self._recycled))
        return h.hexdigest()
