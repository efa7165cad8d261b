"""Interrupt and exception vectors.

Only the pieces the evaluation needs: exception vector numbers (#UD, #PF),
an interrupt-arrival model (Poisson-ish deterministic spacing) used by the
I/O-intensive workloads to decide how many asynchronous enclave exits a
request suffers, and a tiny IDT abstraction that P-Enclaves program with
their own in-enclave handlers (Sec 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# x86 exception vectors we model.
VEC_UD = 6      # invalid opcode
VEC_PF = 14     # page fault
VEC_TIMER = 32  # first external vector: timer tick
VEC_NIC = 33    # network card


@dataclass
class InterruptModel:
    """Deterministic interrupt arrivals: one every ``interval`` cycles.

    The servers in Figure 8c/8d receive NIC interrupts while the enclave
    runs; each one forces an AEX round trip whose cost depends on the
    enclave operation mode.
    """

    interval_cycles: float = 400_000.0
    _accumulated: float = 0.0

    def arrivals_during(self, cycles: float) -> int:
        """How many interrupts fire during a burst of ``cycles`` cycles."""
        if cycles < 0:
            raise ValueError("negative duration")
        self._accumulated += cycles
        count = int(self._accumulated // self.interval_cycles)
        self._accumulated -= count * self.interval_cycles
        return count

    def reset(self) -> None:
        self._accumulated = 0.0


class Idt:
    """An interrupt-descriptor table: vector -> handler.

    The primary OS owns one; a P-Enclave installs its own so white-listed
    exceptions are delivered without leaving the enclave.
    """

    def __init__(self) -> None:
        self._handlers: dict[int, Callable[..., object]] = {}

    def set_handler(self, vector: int, handler: Callable[..., object]) -> None:
        if not 0 <= vector < 256:
            raise ValueError(f"bad vector {vector}")
        self._handlers[vector] = handler

    def handler_for(self, vector: int) -> Callable[..., object] | None:
        return self._handlers.get(vector)

    def clear(self) -> None:
        self._handlers.clear()
