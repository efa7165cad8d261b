"""Structured execution tracing.

A bounded in-memory event buffer the platform components append to when
tracing is enabled: world switches, hypercalls, exceptions, page faults,
swaps.  Disabled by default (zero overhead beyond one branch); enabled it
is the observability surface a production monitor would expose — and what
the debugging story in the artifact appendix leans on.

Every event carries a monotonic sequence number (``seq``) assigned from a
total counter that keeps counting across ring wrap-around, so event loss
is observable: ``total_recorded - len(buffer)`` events have been dropped,
and :meth:`TraceBuffer.stats` reports both.  Events also carry the
current *causal context* — a path of ``ecall:``/``ocall:`` scopes pushed
by the SDK — so a hypercall deep in the monitor can be attributed to the
edge call that triggered it.  Taps registered with :meth:`TraceBuffer.tap`
see every event before it can be evicted, which is how the flight
recorder keeps a lossless journal off a bounded ring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event, stamped with the integral cycle count."""

    cycle: int
    kind: str          # "eenter" | "eexit" | "aex" | "hypercall" | ...
    detail: str
    seq: int = 0       # monotonic across ring wrap-around
    cause: str = ""    # causal scope path, e.g. "ecall:nop#3/ocall:log#1"

    def __str__(self) -> str:
        tail = f"  <{self.cause}>" if self.cause else ""
        return (f"#{self.seq:<6} [{self.cycle:>14,}] {self.kind:<12} "
                f"{self.detail}{tail}")


class TraceBuffer:
    """A bounded ring of :class:`TraceEvent` with loss accounting."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.enabled = False
        self.capacity = capacity
        self.total_recorded = 0
        self.dropped = 0
        self.on_drop: Callable[[int], None] | None = None
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._cycles = None
        self._taps: list[Callable[[TraceEvent], None]] = []
        self._cause_stack: list[str] = []
        self._cause_seq = 0

    def attach(self, cycles) -> None:
        """Bind the cycle counter that timestamps events."""
        self._cycles = cycles

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------- causes --

    def push_cause(self, label: str) -> str:
        """Enter a causal scope; returns the full unique cause path.

        Each push gets a process-unique ``#N`` suffix so two ecalls with
        the same name remain distinguishable in the journal.
        """
        self._cause_seq += 1
        scope = f"{label}#{self._cause_seq}"
        parent = self._cause_stack[-1] if self._cause_stack else ""
        path = f"{parent}/{scope}" if parent else scope
        self._cause_stack.append(path)
        return path

    def pop_cause(self) -> None:
        if self._cause_stack:
            self._cause_stack.pop()

    @property
    def current_cause(self) -> str:
        return self._cause_stack[-1] if self._cause_stack else ""

    # ---------------------------------------------------------- recording --

    def tap(self, fn: Callable[[TraceEvent], None]) -> None:
        """Register a callback that sees every event before eviction."""
        self._taps.append(fn)

    def record(self, kind: str, detail: str = "") -> None:
        if not self.enabled:
            return
        cycle = self._cycles.read() if self._cycles is not None else 0
        event = TraceEvent(cycle=cycle, kind=kind, detail=detail,
                           seq=self.total_recorded,
                           cause=self.current_cause)
        self.total_recorded += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop(1)
        self._events.append(event)
        for fn in self._taps:
            fn(event)

    def stats(self) -> dict:
        """Loss accounting: recorded / dropped / resident / capacity."""
        return {
            "recorded": self.total_recorded,
            "dropped": self.dropped,
            "entries": len(self._events),
            "capacity": self.capacity,
        }

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)
