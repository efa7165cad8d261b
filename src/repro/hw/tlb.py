"""Translation lookaside buffer with ASIDs.

World switches either flush the whole TLB (GU/P-Enclave: new GPT+NPT) or
just switch the active ASID (HU-Enclave), which is one of the mechanisms
behind the mode cost differences in Table 1.  The security analysis also
relies on flushes: "TLBs are cleared upon world switches to prevent
illegal memory accesses using stale TLB entries" (Sec 6).

Fast path (see :mod:`repro.hw.memmodel`): a plain
resident-key *set* mirrors the OrderedDict's membership so the memory
model can confirm a hit without touching the LRU structure; the hit's
``move_to_end`` is deferred into a pending list and replayed — deduped
to each key's last occurrence, which yields the identical final order —
before any operation that observes or depends on LRU order (lookups,
inserts, flushes, dumps, digests).  The set is invalidated on exactly
the events the sanitizer already hooks: ``invlpg``, ``flush``,
``flush_asid``, plus capacity evictions; ASID switches need nothing
because keys carry the ASID.  Counters are maintained eagerly, so
``stats()`` and ``state_digest()`` are bit-identical to the reference
per-line loop.  :meth:`Tlb.touch_pages` runs that per-page step over a
page range, and fills an empty TLB in one pass.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.hw.phys import PAGE_SIZE
from repro.hw.paging import PageTableFlags


class Tlb:
    """A finite, LRU-evicting TLB keyed by (asid, virtual page number)."""

    __slots__ = ("capacity", "_entries", "hits", "misses", "flushes",
                 "sanitizer", "_resident", "_pending", "_asid_keys")

    def __init__(self, capacity: int = 1536) -> None:
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, int], tuple[int, PageTableFlags]] \
            = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        # Set by repro.sanitizer when REPRO_SANITIZE=1: invalidations are
        # reported so the shadow TLB-coherence protocol can retire
        # pending-shootdown entries.
        self.sanitizer = None
        # Fast-path state: resident-key memo (always a subset of
        # ``_entries``), deferred-LRU pending list, and the per-ASID key
        # index that makes ``flush_asid`` O(entries of that ASID).
        self._resident: set[tuple[int, int]] = set()
        self._pending: list[tuple[int, int]] = []
        self._asid_keys: dict[int, set[tuple[int, int]]] = {}

    # -- deferred LRU ---------------------------------------------------------

    def fast_hit(self, asid: int, vpn: int) -> bool:
        """Memoized hit check: count the hit, defer the LRU move.

        Returns False when the key is not known-resident — the caller
        must fall back to :meth:`lookup` (which settles hit/miss
        accounting itself).  Equivalent to a :meth:`lookup` hit: the
        counter bumps now, the ``move_to_end`` replays before the next
        order-sensitive operation.
        """
        key = (asid, vpn)
        if key in self._resident:
            self.hits += 1
            self._pending.append(key)
            return True
        return False

    def _replay(self) -> None:
        """Apply deferred LRU moves; final order matches eager replay.

        Deduping to each key's *last* occurrence and replaying those in
        original order is order-equivalent to replaying every occurrence:
        only a key's final move decides its position.
        """
        pending = self._pending
        if not pending:
            return
        mte = self._entries.move_to_end
        if len(pending) == 1:
            mte(pending[0])
        else:
            # dict.fromkeys(reversed(...)) keeps first-seen = original
            # last occurrence; iterate reversed to restore source order.
            for key in reversed(dict.fromkeys(reversed(pending))):
                mte(key)
        pending.clear()

    def touch_pages(self, asid: int, first: int, stop: int) -> int:
        """Touch virtual pages ``first`` .. ``stop - 1`` of ``asid`` in order.

        Per page this is :meth:`fast_hit`, else :meth:`lookup`, and on a
        miss an identity :meth:`insert` (``pa_page`` is the page's own
        address, flags 0): the memory model's page stage.  Returns the
        number of misses, each of which the caller charges as a walk.
        On an empty TLB (every touch after a full flush) every page
        misses, so the run is inserted in one pass with no lookup or
        eviction: only the last ``capacity`` pages are inserted, oldest
        first, which is what page-by-page inserts and LRU evictions
        would leave.
        """
        entries = self._entries
        resident = self._resident
        if not entries:
            if stop <= first:
                return 0
            self.misses += stop - first
            start = stop - self.capacity
            for vpn in range(first if first > start else start, stop):
                key = (asid, vpn)
                entries[key] = (vpn * PAGE_SIZE, 0)
                resident.add(key)
            # resident was empty with the entries: it now holds the run.
            asid_keys = self._asid_keys.get(asid)
            if asid_keys is None:
                self._asid_keys[asid] = set(resident)
            else:
                asid_keys.update(resident)
            return stop - first
        pending = self._pending
        hits = misses = 0
        for vpn in range(first, stop):
            key = (asid, vpn)
            if key in resident:
                hits += 1
                pending.append(key)
            elif self.lookup(asid, vpn * PAGE_SIZE) is None:
                misses += 1
                self.insert(asid, vpn * PAGE_SIZE, vpn * PAGE_SIZE, flags=0)
        self.hits += hits
        return misses

    # -- the architectural operations ----------------------------------------

    def lookup(self, asid: int, va: int) -> tuple[int, PageTableFlags] | None:
        """Return (page frame PA, flags) on hit, else None."""
        key = (asid, va // PAGE_SIZE)
        hit = self._entries.get(key)
        if hit is None:
            self.misses += 1
            return None
        if self._pending:
            self._replay()
        self._entries.move_to_end(key)
        self._resident.add(key)
        self.hits += 1
        return hit

    def insert(self, asid: int, va: int, pa_page: int,
               flags: PageTableFlags) -> None:
        if self._pending:
            self._replay()
        key = (asid, va // PAGE_SIZE)
        entries = self._entries
        entries[key] = (pa_page, flags)
        entries.move_to_end(key)
        self._resident.add(key)
        keys = self._asid_keys.get(asid)
        if keys is None:
            keys = self._asid_keys[asid] = set()
        keys.add(key)
        while len(entries) > self.capacity:
            evicted, _ = entries.popitem(last=False)
            self._resident.discard(evicted)
            old = self._asid_keys.get(evicted[0])
            if old is not None:
                old.discard(evicted)

    def invlpg(self, asid: int, va: int) -> None:
        """Invalidate one page's entry (the INVLPG instruction)."""
        if self._pending:
            self._replay()
        key = (asid, va // PAGE_SIZE)
        self._entries.pop(key, None)
        self._resident.discard(key)
        keys = self._asid_keys.get(asid)
        if keys is not None:
            keys.discard(key)
        if self.sanitizer is not None:
            self.sanitizer.on_tlb_invlpg(asid, key[1])

    def flush(self) -> None:
        """Drop every entry (full flush, e.g. MOV CR3 without PCID).

        An empty TLB has nothing to clear (no entry means no resident
        key and no pending hit), but the flush still counts and still
        reaches the sanitizer.
        """
        if self._entries:
            self._entries.clear()
            self._resident.clear()
            self._pending.clear()
            self._asid_keys.clear()
        self.flushes += 1
        if self.sanitizer is not None:
            self.sanitizer.on_tlb_flush()

    def flush_asid(self, asid: int) -> None:
        """Drop all entries for one ASID (O(entries of that ASID))."""
        if self._pending:
            self._replay()
        stale = self._asid_keys.pop(asid, None)
        if stale:
            entries = self._entries
            resident = self._resident
            for key in stale:
                del entries[key]
                resident.discard(key)
        self.flushes += 1
        if self.sanitizer is not None:
            self.sanitizer.on_tlb_flush_asid(asid)

    def entries_dump(self) -> list[dict]:
        """Every resident translation, LRU-oldest first (forensics)."""
        if self._pending:
            self._replay()
        return [{"asid": asid, "vpn": vpn, "pa_page": pa,
                 "flags": int(flags)}
                for (asid, vpn), (pa, flags) in self._entries.items()]

    def state_digest(self) -> str:
        """A canonical hash of the resident entries and counters.

        LRU *order* is part of the state — it determines future
        evictions — so the digest folds the entry sequence, not just the
        set.
        """
        from repro.hw import statehash
        if self._pending:
            self._replay()
        return statehash.digest({
            "entries": [(asid, vpn, pa, int(flags))
                        for (asid, vpn), (pa, flags)
                        in self._entries.items()],
            "hits": self.hits, "misses": self.misses,
            "flushes": self.flushes,
        })

    def stats(self) -> dict[str, int]:
        """Hit/miss/flush counters for the telemetry collectors."""
        return {"hits": self.hits, "misses": self.misses,
                "flushes": self.flushes, "entries": len(self._entries),
                "capacity": self.capacity}

    def __len__(self) -> int:
        return len(self._entries)
