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
beside the frames, and every page of a write is a single-frame
:meth:`PhysicalMemory.write`.
"""

from __future__ import annotations

from typing import Callable

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
        return phys.read(translate(va), size) if size > 0 else b""
    return phys.read_pages(translate, va, size)


def copy_out(phys: PhysicalMemory, translate: Callable[[int], int],
             va: int, data: bytes) -> None:
    """Write ``data`` starting at virtual address ``va`` (same contract
    as :func:`copy_in`; ``translate`` should perform write checks)."""
    # Each page is one sub-view of ``data`` handed to phys.write's
    # single-frame path, right after its own translate.
    view = memoryview(data)
    write = phys.write
    size = len(view)
    chunk = PAGE_SIZE - va % PAGE_SIZE     # the first page runs to its end
    done = 0
    while done < size:
        if chunk > size - done:
            chunk = size - done
        write(translate(va), view[done:done + chunk])
        va += chunk
        done += chunk
        chunk = PAGE_SIZE
