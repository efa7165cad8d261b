"""Page-chunked copies between virtual ranges and physical memory.

Untrusted software (the OS simulation, the SDK's trusted runtime) never
touches :class:`~repro.hw.phys.PhysicalMemory` directly — every access
goes through one of these helpers with a *translate* callback supplied
by the caller.  The callback owns policy: page-table walks, demand
paging, monitor policing, enclave access control.  Keeping the raw
``phys.read``/``phys.write`` calls here (hardware layer) is what
staticcheck rule SC006 enforces.

A page costs one ``translate`` call and one frame copy: a multi-page
read is :meth:`PhysicalMemory.read_pages`, which runs the page loop
beside the frames and joins the pages once, and every page of a write
is a single-frame :meth:`PhysicalMemory.write`.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import PhysicalMemoryError
from repro.hw.phys import PAGE_SIZE, PhysicalMemory


def copy_in(phys: PhysicalMemory, translate: Callable[[int], int],
            va: int, size: int) -> bytes:
    """Read ``size`` bytes starting at virtual address ``va``.

    ``translate`` maps a VA to the PA of its page's base-offset byte; it
    is called once per page touched and may fault, demand-page, or
    police as the caller requires.
    """
    if va % PAGE_SIZE + size <= PAGE_SIZE:
        # One page (or nothing): a single read is the one copy.
        if size > 0:
            return phys.read(translate(va), size)
        if size < 0:
            raise PhysicalMemoryError("negative length")
        return b""
    return phys.read_pages(translate, va, size)


def copy_out(phys: PhysicalMemory, translate: Callable[[int], int],
             va: int, data: bytes) -> None:
    """Write ``data`` starting at virtual address ``va`` (same contract
    as :func:`copy_in`; ``translate`` should perform write checks)."""
    # Each page is one sub-view of ``data`` handed to phys.write's
    # single-frame path, right after its own translate: the head runs
    # to its page's end, then every later page starts on a page base
    # (the last sub-view is clamped to the data's end).
    view = memoryview(data)
    write = phys.write
    size = len(view)
    head = min(PAGE_SIZE - va % PAGE_SIZE, size)
    if head:
        write(translate(va), view[:head])
    for done in range(head, size, PAGE_SIZE):
        write(translate(va + done), view[done:done + PAGE_SIZE])
