"""The workload-facing memory subsystem.

Workloads (the B-tree database, the web server, the NBench kernels...)
don't move every byte through the byte-accurate physical memory — that
fidelity is reserved for the paths where *security semantics* matter
(marshalling buffer, measurement, page tables).  For performance
accounting they call :meth:`MemorySubsystem.touch`, which drives the full
TLB -> LLC -> encryption-engine -> (optional EPC paging) pipeline and
charges cycles, per 64-byte line, exactly once per line touched.

An SGX backend attaches an :class:`EpcModel`: a page-granular LRU of EPC
residency.  A touch to a non-resident page costs an EPC page fault (EWB +
ELDU + driver); sustained thrashing switches to the driver's cheaper
batched-eviction path — this produces the Figure 8b cliff and the
beyond-EPC regime of Figure 11.

Two implementations drive the pipeline.  The per-page/per-line
reference loop (:meth:`MemorySubsystem._touch_lines`) runs every
configuration the fast path cannot reproduce exactly, and is what the
fast path is tested against.  The default *fast* path memoizes
translations above the TLB (:meth:`~repro.hw.tlb.Tlb.fast_hit`),
processes the line range through the bulk
:meth:`~repro.hw.cache.Llc.access_range` kernel, and charges engine
costs per missed *run* instead of per line.  Every cost constant on
this path is integer-valued (guarded at eligibility time), so the
re-associated sums are exact and the charge — a single
:meth:`~repro.hw.cycles.CycleCounter.charge` per touch, as before — is
bit-identical to the reference loop.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from repro.hw import costs
from repro.hw.cache import Llc
from repro.hw.cycles import CycleCounter
from repro.hw.memenc import (AmdSme, EncryptionEngine, IntelMee,
                             NoEncryption)
from repro.hw.phys import PAGE_SIZE
from repro.hw.tlb import Tlb

# Fast-path eligibility, part 1: every cost constant the bulk kernels
# re-associate must be integer-valued, so that summing them in a
# different order (n * cost instead of cost + cost + ...) is exact in
# floating point.  Evaluated once at import; a calibrated cost model
# with fractional per-line constants simply keeps the reference loop.
_INTEGRAL_COSTS = all(float(value).is_integer() for value in (
    costs.LLC_HIT_CYCLES, costs.DRAM_CYCLES, costs.SEQ_STREAM_CYCLES,
    costs.PAGE_WALK_GUEST_CYCLES, costs.PAGE_WALK_NESTED_CYCLES,
    costs.MEE_METADATA_PROBE_CYCLES, costs.MEE_METADATA_MISS_CYCLES,
    costs.SGX_EPC_POPULATE_CYCLES, costs.SGX_EPC_FAULT_CYCLES,
    costs.SGX_EPC_FAULT_BATCHED_CYCLES))

# Fast-path eligibility, part 2: engine dispatch.  Exact-type checks on
# purpose — a subclass overriding miss_cycles must fall back to the
# per-line reference loop that actually calls it.
_KIND_NONE, _KIND_FLAT, _KIND_MEE, _KIND_INELIGIBLE = 0, 1, 2, -1


def _engine_fast_kind(engine) -> int:
    t = type(engine)
    if t is NoEncryption or t is EncryptionEngine:
        return _KIND_NONE
    if t is AmdSme:
        constants = (engine.per_miss, engine.per_writeback,
                     engine.per_stream_miss)
        kind = _KIND_FLAT
    elif t is IntelMee:
        constants = (engine.per_miss, engine.per_writeback,
                     engine.per_stream_miss)
        kind = _KIND_MEE
    else:
        return _KIND_INELIGIBLE
    if all(float(value).is_integer() for value in constants):
        return kind
    return _KIND_INELIGIBLE


class EpcModel:
    """Page-granular EPC residency with LRU eviction and fault costs."""

    __slots__ = ("capacity_pages", "_resident", "faults", "_recent")

    def __init__(self, size_bytes: int = costs.SGX_EPC_SIZE) -> None:
        self.capacity_pages = max(size_bytes // PAGE_SIZE, 1)
        self._resident: OrderedDict[int, None] = OrderedDict()
        self.faults = 0
        self._recent: deque[bool] = deque(maxlen=64)  # fault history

    def access(self, page_id: int) -> float:
        """Touch a page; returns the fault cost in cycles (0 if resident)."""
        if page_id in self._resident:
            self._resident.move_to_end(page_id)
            self._recent.append(False)
            return 0.0
        self._resident[page_id] = None
        if len(self._resident) <= self.capacity_pages:
            # Room left in the EPC: first touch is just EAUG + zeroing.
            return float(costs.SGX_EPC_POPULATE_CYCLES)
        self._resident.popitem(last=False)
        self.faults += 1
        self._recent.append(True)
        if len(self._recent) >= 32 and self.fault_rate() > 0.5:
            # Sustained thrashing: the driver batches evictions, so the
            # marginal fault is cheaper than a cold one.
            return float(costs.SGX_EPC_FAULT_BATCHED_CYCLES)
        return float(costs.SGX_EPC_FAULT_CYCLES)

    def fault_rate(self) -> float:
        if not self._recent:
            return 0.0
        return sum(self._recent) / len(self._recent)

    def reset(self) -> None:
        self._resident.clear()
        self._recent.clear()
        self.faults = 0


class MemorySubsystem:
    """TLB + LLC + encryption engine (+ optional EPC) cost pipeline."""

    def __init__(self, cycles: CycleCounter,
                 engine: EncryptionEngine | None = None,
                 *,
                 llc: Llc | None = None,
                 tlb: Tlb | None = None,
                 epc: EpcModel | None = None,
                 nested_paging: bool = False,
                 category: str = "memory") -> None:
        self.cycles = cycles
        self.engine = engine if engine is not None else NoEncryption()
        # NOTE: Llc/Tlb define __len__, so an empty cache is falsy —
        # ``llc or Llc()`` would silently discard a caller-supplied one.
        self.llc = llc if llc is not None else Llc()
        self.tlb = tlb if tlb is not None else Tlb(costs.TLB_ENTRIES)
        self.epc = epc
        self.nested_paging = nested_paging
        self.category = category
        self.asid = 1
        # Fast-path eligibility, resolved at first touch (None = not yet
        # checked); swapping engine/llc/tlb afterwards requires a fresh
        # subsystem.
        self._fp_kind: int | None = None

    def _resolve_fp_kind(self) -> int:
        kind = _KIND_INELIGIBLE
        if _INTEGRAL_COSTS and type(self.llc) is Llc \
                and type(self.tlb) is Tlb \
                and (self.epc is None or type(self.epc) is EpcModel):
            kind = _engine_fast_kind(self.engine)
        self._fp_kind = kind
        return kind

    # -- the hot path ---------------------------------------------------------

    def touch(self, addr: int, size: int = 8, *, write: bool = False) -> float:
        """Access ``size`` bytes at abstract address ``addr``; charge cycles.

        Returns the cycles charged (useful to tests).
        """
        if size <= 0:
            return 0.0
        kind = self._fp_kind
        if kind is None:
            kind = self._resolve_fp_kind()
        if kind >= 0:
            return self._touch_fast(addr, size, write, False, kind)
        return self._touch_lines(addr, size, write, False)

    def touch_sequential(self, addr: int, size: int, *,
                         write: bool = False) -> float:
        """A prefetch-friendly streaming sweep over ``size`` bytes.

        Sequential DRAM traffic is latency-hidden by the prefetchers, so a
        missed line costs :data:`~repro.hw.costs.SEQ_STREAM_CYCLES` per
        8-byte word instead of the full DRAM latency, while encryption
        engines still see (and charge for) each missed line.
        """
        if size <= 0:
            return 0.0
        kind = self._fp_kind
        if kind is None:
            kind = self._resolve_fp_kind()
        if kind >= 0:
            return self._touch_fast(addr, size, write, True, kind)
        return self._touch_lines(addr, size, write, True)

    def _touch_lines(self, addr: int, size: int, write: bool,
                     streaming: bool) -> float:
        """The per-page/per-line reference loop.

        Runs every configuration :meth:`_resolve_fp_kind` marks
        ineligible (fractional cost constants; engine, ``Llc`` or ``Tlb``
        subclasses), and is the ground truth the fast path is tested
        against.  A missed line's DRAM and engine charges are added in
        two separate steps: with fractional engine costs, summing them
        first would round differently.
        """
        charged = 0.0
        if streaming:
            miss_base = costs.SEQ_STREAM_CYCLES * (costs.CACHE_LINE // 8)
        else:
            miss_base = costs.DRAM_CYCLES

        for page in range(addr // PAGE_SIZE, (addr + size - 1) // PAGE_SIZE + 1):
            if self.tlb.lookup(self.asid, page * PAGE_SIZE) is None:
                walk = (costs.PAGE_WALK_NESTED_CYCLES if self.nested_paging
                        else costs.PAGE_WALK_GUEST_CYCLES)
                charged += walk
                self.tlb.insert(self.asid, page * PAGE_SIZE, page * PAGE_SIZE,
                                flags=0)
            if self.epc is not None:
                charged += self.epc.access(page)

        for line in range(addr // costs.CACHE_LINE,
                          (addr + size - 1) // costs.CACHE_LINE + 1):
            hit, evicted_dirty = self.llc.access_ex(line, write=write)
            if hit:
                charged += costs.LLC_HIT_CYCLES
            else:
                charged += miss_base
                charged += self.engine.miss_cycles(line, write=write,
                                                   streaming=streaming)
            if evicted_dirty:
                charged += self.engine.writeback_cycles()

        self.cycles.charge(charged, self.category)
        return charged

    def _touch_fast(self, addr: int, size: int, write: bool,
                    streaming: bool, kind: int) -> float:
        """The layered fast path; charges identically to :meth:`_touch_lines`.

        Page stage: one :meth:`~repro.hw.tlb.Tlb.touch_pages` call runs
        the pages through the TLB (the resident-key memo confirms hot
        hits without LRU bookkeeping, misses take the reference
        lookup/insert sequence, and a flushed TLB takes the whole run in
        one step), so counters and eviction order are untouched; its
        miss count is charged as walks, then the EPC model sees each
        page in order.  Line stage: one bulk
        :meth:`~repro.hw.cache.Llc.access_range` call, then closed-form
        cost arithmetic over the aggregate hit/miss/eviction counts —
        exact because every constant involved is integral (see
        ``_INTEGRAL_COSTS``).
        """
        first_page = addr // PAGE_SIZE
        stop_page = (addr + size - 1) // PAGE_SIZE + 1
        walks = self.tlb.touch_pages(self.asid, first_page, stop_page)
        charged = 0.0
        if walks:
            charged += walks * (costs.PAGE_WALK_NESTED_CYCLES
                                 if self.nested_paging
                                 else costs.PAGE_WALK_GUEST_CYCLES)
        epc = self.epc
        if epc is not None:
            epc_access = epc.access
            for page in range(first_page, stop_page):
                charged += epc_access(page)

        first_line = addr // costs.CACHE_LINE
        last_line = (addr + size - 1) // costs.CACHE_LINE
        hits, misses, dirty_evictions, missed_runs = \
            self.llc.access_range(first_line, last_line, write=write)
        if streaming:
            miss_base = costs.SEQ_STREAM_CYCLES * (costs.CACHE_LINE // 8)
        else:
            miss_base = costs.DRAM_CYCLES
        charged += hits * costs.LLC_HIT_CYCLES + misses * miss_base
        engine = self.engine
        if misses and kind:
            if kind == _KIND_FLAT:
                per = engine.per_stream_miss if streaming else engine.per_miss
                charged += misses * per
            else:
                for run_start, run_stop in missed_runs:
                    charged += engine.miss_cycles_run(
                        run_start, run_stop, write=write, streaming=streaming)
        if dirty_evictions:
            charged += dirty_evictions * engine.writeback_cycles()

        self.cycles.charge(charged, self.category)
        return charged

    def compute(self, ops: float) -> None:
        """Charge pure-compute cycles (one abstract op = ``OP_CYCLES``)."""
        self.cycles.charge(ops * costs.OP_CYCLES, "compute")

    def memcpy(self, size: int) -> float:
        """Charge a streaming copy of ``size`` bytes."""
        lines = max(1, (size + costs.CACHE_LINE - 1) // costs.CACHE_LINE)
        charged = costs.MEMCPY_FIXED_CYCLES + lines * costs.MEMCPY_CYCLES_PER_LINE
        self.cycles.charge(charged, "memcpy")
        return charged

    def clflush(self, addr: int, size: int) -> None:
        """Flush a byte range out of the LLC (the CLFLUSH loop in Fig 7)."""
        self.llc.flush_range(addr, size)

    def reset_state(self) -> None:
        """Cold caches/TLB (used between benchmark configurations)."""
        self.llc.flush_all()
        self.tlb.flush()
        self.engine.reset()
        if self.epc is not None:
            self.epc.reset()
