"""Processes and their address spaces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import OsError
from repro.hw.paging import PageTable
from repro.hw.phys import PAGE_SIZE

# Classic layout constants.
CODE_BASE = 0x0000_0040_0000
HEAP_BASE = 0x0000_1000_0000
MMAP_BASE = 0x7F00_0000_0000


@dataclass
class VmArea:
    """One mmap'd region of a process address space."""

    start: int
    size: int
    writable: bool
    populated: bool
    pinned: bool = False
    frames: list[int] = field(default_factory=list)

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, va: int, size: int = 1) -> bool:
        return self.start <= va and va + size <= self.end


class Process:
    """A primary-OS process: page table, VMAs, signal handlers."""

    def __init__(self, pid: int, page_table: PageTable) -> None:
        self.pid = pid
        self.pt = page_table
        self.vmas: list[VmArea] = []
        self._mmap_cursor = MMAP_BASE
        self.heap_top = HEAP_BASE
        self.signal_handlers: dict[int, Callable[..., object]] = {}
        self.enclaves: dict[int, object] = {}   # uRTS-managed handles
        self.alive = True

    def next_mmap_va(self, size: int) -> int:
        """Pick a fresh address in the mmap region."""
        va = self._mmap_cursor
        self._mmap_cursor += ((size + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)) \
            + PAGE_SIZE   # guard gap
        return va

    def vma_at(self, va: int, size: int = 1) -> VmArea | None:
        for vma in self.vmas:
            if vma.contains(va, size):
                return vma
        return None

    def register_signal_handler(self, signal: int,
                                handler: Callable[..., object]) -> None:
        self.signal_handlers[signal] = handler

    def translate(self, va: int, *, write: bool = False) -> int:
        """Translate through the process page table (user access)."""
        if not self.alive:
            raise OsError(f"process {self.pid} has exited")
        return self.pt.translate(va, write=write, user=True).pa
