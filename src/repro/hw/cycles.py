"""Cycle accounting.

Every simulated hardware or software step charges cycles to the machine's
:class:`CycleCounter`.  Benchmarks read the counter before and after a
region of interest; categories let us itemize where time went (world
switches, page walks, memcpy, encryption, compute, ...).  Beside the
category registry sits :data:`SITES`, the one table of names each
instrumented site writes to the telemetry observers.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: The critical-path classes (plus the total-preserving catch-all).
CLASSES = ("enclave-compute", "world-switch", "marshalling",
           "swap-stall", "kernel", "other")

#: Every charge category, declared once: name -> (telemetry subsystem,
#: critical-path class, meaning).  A family whose members carry a
#: suffix (``eenter:gu``, ``pf:p``) is keyed by its head before ``:``.
CATEGORIES: dict[str, tuple[str, str, str]] = {
    "hypercall": ("monitor", "kernel", "RustMonitor hypercall handling"),
    "tlb-shootdown": ("monitor", "kernel", "cross-vCPU TLB shootdown"),
    "pte-update": ("monitor", "kernel", "monitor edit of an enclave PTE"),
    "interrupt": ("monitor", "kernel", "interrupt handling, native run"),
    "measure": ("monitor", "kernel", "measuring pages into MRENCLAVE"),
    "seal": ("monitor", "kernel", "sealing or unsealing data"),
    "seal-key": ("monitor", "kernel", "sealing-key derivation"),
    "edmm-sgx2": ("monitor", "swap-stall", "SGX2 dynamic EPC change"),
    "demand-paging": ("monitor", "swap-stall", "EPC demand-fault service"),
    "swap-in": ("monitor", "swap-stall", "decrypt and restore an EPC page"),
    "swap-out": ("monitor", "swap-stall", "encrypt and evict an EPC page"),
    "eenter": ("world", "world-switch", "EENTER into an enclave"),
    "eexit": ("world", "world-switch", "EEXIT back to the host"),
    "aex": ("world", "world-switch", "asynchronous enclave exit"),
    "aex-interrupt": ("world", "world-switch", "AEX forced by an interrupt"),
    "eresume": ("world", "world-switch", "ERESUME after an AEX"),
    "tlb-warmup": ("world", "world-switch", "TLB refill after a switch"),
    "exception": ("world", "enclave-compute", "in-enclave exception handler"),
    "pf": ("world", "enclave-compute", "in-enclave page-fault handler"),
    "sdk-ecall": ("sdk", "marshalling", "ECALL bridge and trampoline"),
    "sdk-ocall": ("sdk", "marshalling", "OCALL bridge and trampoline"),
    "memcpy": ("sdk", "marshalling", "[in]/[out] buffer copy"),
    "switchless": ("sdk", "marshalling", "switchless-call queue work"),
    "enclave-memory": ("memory", "enclave-compute", "enclave memory access"),
    "native-memory": ("memory", "enclave-compute", "native memory access"),
    "memory": ("memory", "enclave-compute", "memory access, untagged"),
    "compute": ("memory", "enclave-compute", "ALU work"),
    "own-pt-update": ("memory", "enclave-compute", "P-mode own PT edit"),
    "invlpg": ("memory", "enclave-compute", "P-mode INVLPG"),
    "parse": ("memory", "enclave-compute", "kbuild source parsing"),
    "codegen": ("memory", "enclave-compute", "kbuild code generation"),
    "victim-compute": ("memory", "enclave-compute", "side-channel victim"),
    # Subsystem "other": BENCH_ablation_swap.json pins these 327,850
    # cycles as telemetry.by_subsystem.other; moving them is a baseline
    # change.
    "resident-touch": ("other", "enclave-compute", "ablation page touch"),
    "syscall": ("os", "kernel", "system-call entry and exit"),
    "kernel-work": ("os", "kernel", "in-kernel syscall work"),
    "ctxsw": ("os", "kernel", "process context switch"),
    "pte-fill": ("os", "kernel", "OS page-table fill on a fault"),
    "os-fault": ("os", "kernel", "OS page-fault handling"),
    "signal": ("os", "kernel", "signal delivery"),
    "npt-fill": ("os", "kernel", "nested page-table fill"),
    "vfs": ("os", "kernel", "VFS lookup and file I/O"),
    "link": ("os", "kernel", "kbuild link step"),
    "netstack": ("os", "kernel", "loopback network stack, per message"),
}
_UNDECLARED = ("other", "other", "undeclared")


@dataclass(frozen=True, slots=True)
class Site:
    """The names one instrumented site writes, declared once.

    Templates are ``str.format`` strings over the fields the site passes
    to :meth:`repro.telemetry.Telemetry.site`.
    """

    span: str | None = None          # telemetry span name
    labels: tuple[str, ...] = ()     # span label fields, in label order
    segment: str | None = None       # request-tracer segment kind
    name: str | None = None          # segment name template
    request: bool = False            # a request; tenant: field enclave
    event: str | None = None         # trace-ring event kind
    detail: str = ""                 # ring event detail template
    on_exit: bool = False            # the event fires on exit, not entry
    cause: str | None = None         # causal-scope label template
    flow: bool = False               # the segment is a Perfetto flow step


_SWITCH = ("enclave", "mode")

#: Every instrumented site, declared once: site -> the span, segment,
#: ring event and cause it writes.  The names are the ones already in
#: the artifact, requests, journal and trace files.
SITES: dict[str, Site] = {
    "eenter": Site("world.eenter", _SWITCH, "eenter", "{mode}",
                   event="eenter", on_exit=True, flow=True,
                   detail="enclave={enclave} mode={mode} tcs={tcs}"),
    "eexit": Site("world.eexit", _SWITCH, "eexit", "{mode}",
                  event="eexit", on_exit=True, flow=True,
                  detail="enclave={enclave} mode={mode}"),
    "aex": Site("world.aex", _SWITCH, "aex", "vector:{vector}",
                event="aex", on_exit=True, flow=True,
                detail="enclave={enclave} vector={vector}"),
    "eresume": Site("world.eresume", _SWITCH, "eresume", "{mode}",
                    event="eresume", on_exit=True, flow=True,
                    detail="enclave={enclave} mode={mode}"),
    "hypercall": Site(segment="hypercall", name="{op}", event="hypercall",
                      detail="{op}", on_exit=True),
    "tlb_shootdown": Site(segment="tlb_shootdown"),
    "page_fault": Site("monitor.pagefault", ("enclave",), "page_fault",
                       "{va:#x}", event="pagefault",
                       detail="enclave={enclave} va={va:#x}"),
    "swap_out": Site("monitor.swap_out", ("enclave",), "swap_out",
                     "{va:#x}", event="swap-out",
                     detail="enclave={enclave} va={va:#x}"),
    "swap_in": Site("monitor.swap_in", ("enclave",), "swap_in", "{va:#x}",
                    event="swap-in", detail="enclave={enclave} va={va:#x}"),
    "ecall": Site("sdk.ecall", ("func", "enclave"), "ecall", "{func}",
                  request=True, cause="ecall:{func}", flow=True),
    "ocall": Site("sdk.ocall", ("func", "enclave", "switchless"), "ocall",
                  "{func}", cause="ocall:{func}", flow=True),
    "create_enclave": Site("sdk.create_enclave", ("mode",),
                           cause="create:{image}"),
    "exception": Site("trts.exception", ("enclave", "vector"),
                      cause="exception:{vector}"),
    "mmap": Site("os.mmap", ("pid", "populate")),
    "signal": Site(event="signal", detail="pid={pid} sig={sig}"),
}

#: Segment kind -> its site: the request tracer's whole vocabulary.
SEGMENT_KINDS: dict[str, Site] = {
    site.segment: site for site in SITES.values() if site.segment}


def category_entry(category: str) -> tuple[str, str, str] | None:
    """The registry entry for ``category`` (its full name first, then
    its family head), or None when it is undeclared."""
    return CATEGORIES.get(category,
                          CATEGORIES.get(category.split(":", 1)[0]))


def subsystem_for_category(category: str) -> str:
    """Fold a category into its subsystem; an undeclared one into
    ``other``, so subsystem totals always sum to the run total."""
    return (category_entry(category) or _UNDECLARED)[0]


def critpath_class(category: str) -> str:
    """Fold a category into its critical-path class (or ``other``)."""
    return (category_entry(category) or _UNDECLARED)[1]


class CycleCounter:
    """A monotonically increasing cycle counter with per-category totals."""

    __slots__ = ("total", "by_category")

    def __init__(self) -> None:
        self.total: int = 0
        self.by_category: dict[str, int] = defaultdict(int)

    def charge(self, cycles: float, category: str) -> None:
        """Add ``cycles`` to the running total under ``category``."""
        if cycles < 0:
            raise ValueError(f"negative cycle charge: {cycles}")
        self.total += cycles
        self.by_category[category] += cycles

    def read(self) -> int:
        """Current total as an integral stamp, like RDTSC.

        ``total`` itself may carry fractional sub-cycle charges (some
        cost-model terms are amortized averages); the architectural
        counter software reads is always a whole number of cycles.
        """
        return int(self.total)

    @contextmanager
    def measure(self) -> Iterator["CycleSpan"]:
        """Context manager measuring the cycles spent inside the block."""
        span = CycleSpan(self)
        span.start()
        try:
            yield span
        finally:
            span.stop()

    def breakdown(self) -> dict[str, int]:
        """A copy of the per-category totals."""
        return dict(self.by_category)


class CycleSpan:
    """A start/stop measurement window over a :class:`CycleCounter`."""

    def __init__(self, counter: CycleCounter) -> None:
        self._counter = counter
        self._start: float | None = None
        self.elapsed: float = 0.0
        self._start_categories: dict[str, int] = {}
        self._end_categories: dict[str, int] = {}
        self._categories: dict[str, float] | None = {}

    def start(self) -> None:
        self._start = self._counter.total
        self._start_categories = dict(self._counter.by_category)

    def stop(self) -> None:
        if self._start is None:
            raise RuntimeError("CycleSpan.stop() before start()")
        self.elapsed = self._counter.total - self._start
        # Snapshot now, diff lazily: most measurement loops only read
        # ``elapsed``, so the per-category delta is computed on demand.
        self._end_categories = dict(self._counter.by_category)
        self._categories = None
        self._start = None

    @property
    def categories(self) -> dict[str, float]:
        """Per-category cycle deltas over the span ({} before stop)."""
        if self._categories is None:
            start = self._start_categories
            self._categories = {
                cat: total - start.get(cat, 0)
                for cat, total in self._end_categories.items()
                if total != start.get(cat, 0)
            }
        return self._categories
