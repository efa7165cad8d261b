"""The per-machine telemetry hub: spans, events, metrics, collectors.

One :class:`Telemetry` instance hangs off every :class:`~repro.hw.machine.
Machine`.  It owns

* the :class:`~repro.hw.trace.TraceBuffer` event ring (the pre-existing
  tracing surface, kept as the raw-event backend),
* a :class:`~repro.telemetry.metrics.MetricsRegistry`,
* the cycle-accurate span API, and
* pull-based hardware collectors (TLB, LLC, encryption engine, paging)
  sampled when a machine record is taken.

Spans *observe* the simulated clock — they never charge cycles — so
enabling telemetry cannot perturb a calibrated benchmark.  Instrumented
code calls ``site()``, which opens a site's span, request segment, ring
event and causal scope together (the names live in
:data:`repro.hw.cycles.SITES`).  Disabled, ``site()`` and ``span()`` are
a single branch returning a shared no-op context manager, so the
disabled path stays bit-identical to a build without telemetry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.hw.cycles import SITES, Site, subsystem_for_category
from repro.hw.trace import TraceBuffer
from repro.telemetry.metrics import MetricsRegistry, _label_key


def cycles_by_subsystem(breakdown: dict[str, int | float]
                        ) -> dict[str, int | float]:
    """Aggregate a per-category cycle breakdown into subsystems."""
    out: dict[str, int | float] = {}
    for category, cycles in breakdown.items():
        sub = subsystem_for_category(category)
        out[sub] = out.get(sub, 0) + cycles
    return out


class UnclosedSpanError(RuntimeError):
    """A run's machine records were taken while spans were still open.

    An open span has not yet folded its cycles into its parent's
    self-cycle accounting, so a record taken now would silently
    misattribute cycles.  This is the runtime counterpart of
    staticcheck rule SC007 (spans must be context-managed).
    """


@dataclass(slots=True)
class SpanRecord:
    """One completed span (feeds the Chrome trace exporter)."""

    name: str
    labels: dict
    start_cycle: int
    dur_cycles: int
    self_cycles: int
    error: bool


class _NullSpan:
    """The shared disabled-path span: enter/exit are no-ops."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Span:
    """A cycle-accurate, nesting measurement window.

    On exit the span aggregates into the registry under its subsystem
    (the ``name`` prefix before the first dot): call count, total
    cycles, *self* cycles (total minus enclosed child spans) and a
    log-scale cycle histogram.  Spans read only the simulated clock.
    """

    __slots__ = ("_telemetry", "name", "labels", "start_cycle",
                 "_child_cycles", "_path")

    def __init__(self, telemetry: "Telemetry", name: str,
                 labels: dict) -> None:
        self._telemetry = telemetry
        self.name = name
        self.labels = labels

    def __enter__(self) -> "Span":
        tel = self._telemetry
        self._child_cycles = 0
        stack = tel._stack
        # The exact ancestor stack (root first, this span last): the key
        # this span's profile frame is folded under at exit.
        self._path = ((stack[-1]._path + (self.name,)) if stack
                      else (self.name,))
        stack.append(self)
        self.start_cycle = int(tel.cycles.total)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tel = self._telemetry
        dur = int(tel.cycles.total) - self.start_cycle
        stack = tel._stack
        # Unwind robustly: an exception may have skipped child exits.
        while stack:
            top = stack.pop()
            if top is self:
                break
        self_cycles = max(dur - self._child_cycles, 0)
        if stack:
            stack[-1]._child_cycles += dur
        labels = self.labels
        # The four metrics a span feeds, and its profile buckets, are
        # fixed per (name, labels); interning each through the registry
        # on every exit dominates span overhead, so the resolved cells
        # are memoized on the Telemetry (cleared in reset()).
        key = (self.name if not labels
               else (self.name, _label_key(labels)))
        metrics = tel._span_metrics.get(key)
        if metrics is None:
            subsystem, _, short = self.name.partition(".")
            short = short or subsystem
            reg = tel.registry
            metrics = (
                reg.counter(subsystem, short + ".calls", **labels),
                reg.counter(subsystem, short + ".cycles", **labels),
                reg.counter(subsystem, short + ".self_cycles", **labels),
                reg.histogram(subsystem, short + ".cycles_hist", **labels),
                str(labels.get("enclave", "-")),
            )
            tel._span_metrics[key] = metrics
        calls, cyc, self_cyc, cyc_hist, enclave = metrics
        # Direct cell mutation: all increments here are non-negative by
        # construction (max() above), matching Counter.inc semantics.
        calls.value += 1
        cyc.value += dur
        self_cyc.value += self_cycles
        cyc_hist.observe(dur)
        # The profile aggregates here, at exit, so it covers every span
        # the run closed; the bounded span ring feeds the Chrome trace.
        frame = tel.frames.get(self._path)
        if frame is None:
            frame = tel.frames[self._path] = [0, 0, 0]
        frame[0] += 1
        frame[1] += dur
        frame[2] += self_cycles
        by_enclave = tel.self_by_enclave
        by_enclave[enclave] = by_enclave.get(enclave, 0) + self_cycles
        if len(self._path) == 1:
            tel.root_cycles += dur
        tel.spans.append(SpanRecord(
            self.name, labels, self.start_cycle, dur, self_cycles,
            exc_type is not None))
        return False


class _Site:
    """One instrumented site's observers, opened and closed together.

    Entry: the entry event, the request or segment, the span, the cause.
    Exit: the same in reverse, then the exit event (on a clean exit
    only).  Each observer is gated by its own switch, read at entry.
    """

    __slots__ = ("_telemetry", "_site", "_fields", "_tracer", "_token",
                 "_span", "_caused")

    def __init__(self, telemetry: "Telemetry", site: Site,
                 fields: dict) -> None:
        self._telemetry = telemetry
        self._site = site
        self._fields = fields

    def __enter__(self) -> "_Site":
        tel, site, fields = self._telemetry, self._site, self._fields
        ring = tel.ring
        if site.event is not None and not site.on_exit and ring.enabled:
            ring.record(site.event, site.detail.format_map(fields))
        tracer = self._tracer = tel.requests
        self._token = self._span = None
        if tracer is not None and site.segment is not None:
            name = site.name and site.name.format_map(fields)
            self._token = (tracer.begin_request(name, fields["enclave"])
                           if site.request else
                           tracer.begin_segment(site.segment, name))
        if site.span is not None and tel.enabled:
            self._span = Span(tel, site.span,
                              {key: fields[key] for key in site.labels})
            self._span.__enter__()
        self._caused = site.cause is not None and ring.enabled
        if self._caused:
            ring.push_cause(site.cause.format_map(fields))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tel, site, token = self._telemetry, self._site, self._token
        if self._caused:
            tel.ring.pop_cause()
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
        if token is not None:
            if site.request:
                self._tracer.end_request(token, error=exc_type is not None)
            else:
                self._tracer.end_segment(token)
        if site.on_exit and exc_type is None and tel.ring.enabled:
            tel.ring.record(site.event, site.detail.format_map(self._fields))
        return False


class Telemetry:
    """The observability hub for one simulated machine."""

    def __init__(self, cycles, *, ring_capacity: int = 4096,
                 span_capacity: int = 65536) -> None:
        self.cycles = cycles
        self.registry = MetricsRegistry()
        self.ring = TraceBuffer(ring_capacity)
        self.ring.attach(cycles)
        self.ring.on_drop = self._on_ring_drop
        self.enabled = False
        # The most recent closed spans, for the Chrome trace.
        self.spans: deque[SpanRecord] = deque(maxlen=span_capacity)
        # Every closed span, folded for the profiler: ancestor path ->
        # [calls, cycles, self cycles]; self cycles per enclave label;
        # the cycles of root spans.
        self.frames: dict[tuple[str, ...], list[int]] = {}
        self.self_by_enclave: dict[str, int] = {}
        self.root_cycles = 0
        self._stack: list[Span] = []
        self._collectors: dict[str, Callable[[], dict]] = {}
        self._paging: dict[str, object] = {}
        # (name[, sorted-labels]) -> the 4 metric cells a span feeds on
        # exit plus its enclave key; see Span.__exit__.
        self._span_metrics: dict = {}
        # Request tracer (repro.telemetry.requests); attached by the
        # sink or attach_machine, None when off.
        self.requests = None

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        """Turn on spans, metrics, and the event ring."""
        self.enabled = True
        self.ring.enable()

    def disable(self) -> None:
        self.enabled = False
        self.ring.disable()

    def reset(self) -> None:
        """Drop all recorded data (metrics, spans, ring events)."""
        self.registry.clear()
        self._span_metrics.clear()
        self.spans.clear()
        self.frames.clear()
        self.self_by_enclave.clear()
        self.root_cycles = 0
        self._stack.clear()
        self.ring.clear()

    # -- the hot-path API ----------------------------------------------------

    def span(self, name: str, **labels):
        """A cycle-accurate span; a shared no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, labels)

    def site(self, name: str, **fields):
        """Open every observer of the instrumented site ``name``.

        The site's span, request segment, ring event and causal scope
        are declared once in :data:`repro.hw.cycles.SITES`; ``fields``
        fill their label and name templates.  With no observer on, this
        is one branch returning the shared no-op (no string is built).
        """
        if self.enabled or self.requests is not None or self.ring.enabled:
            return _Site(self, SITES[name], fields)
        return NULL_SPAN

    def open_span_names(self) -> list[str]:
        """Names of spans currently open, outermost first.

        The artifact path calls this to refuse recording mid-span (see
        :class:`UnclosedSpanError`); a forensic bundle lists them.
        """
        return [span.name for span in self._stack]

    def count(self, subsystem: str, name: str, amount: int | float = 1,
              **labels) -> None:
        """Bump a counter iff telemetry is enabled (single branch off)."""
        if self.enabled:
            self.registry.counter(subsystem, name, **labels).inc(amount)

    def _on_ring_drop(self, n: int) -> None:
        """Ring wrap-around: surface the loss as a metric, not silence."""
        self.registry.counter("trace", "dropped_events").inc(n)

    # -- hardware collectors -------------------------------------------------

    def add_collector(self, name: str, fn: Callable[[], dict]) -> None:
        """Register a pull-based stats source sampled per record."""
        self._collectors[name] = fn

    def paging_stats(self, domain: str):
        """The shared paging-stat sink for one page-table domain."""
        from repro.hw.paging import PagingStats
        stats = self._paging.get(domain)
        if stats is None:
            stats = PagingStats()
            self._paging[domain] = stats
        return stats

    def hardware_stats(self) -> dict[str, dict]:
        """Sample every registered collector (plus paging domains)."""
        out = {name: dict(fn()) for name, fn in self._collectors.items()}
        if self._paging:
            out["paging"] = {domain: stats.as_dict()
                             for domain, stats in self._paging.items()}
        return out
