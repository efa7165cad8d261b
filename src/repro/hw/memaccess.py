"""Page-chunked copies between virtual ranges and physical memory.

Untrusted software (the OS simulation, the SDK's trusted runtime) never
touches :class:`~repro.hw.phys.PhysicalMemory` directly — every access
goes through one of these helpers with a *translate* callback supplied
by the caller.  The callback owns policy: page-table walks, demand
paging, monitor policing, enclave access control.  Keeping the raw
``phys.read``/``phys.write`` calls here (hardware layer) is what
staticcheck rule SC006 enforces.
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
    # Fill one zeroed buffer page by page.  Each page is copied right
    # after its own translate, not through a view of its frame: the next
    # translate may write memory in place (an A/D-bit update, a fault
    # handler fixing up enclave memory).  Never-written frames stay zero.
    out = bytearray(size)
    read_into = phys.read_into
    chunk = PAGE_SIZE - va % PAGE_SIZE     # the first page runs to its end
    done = 0
    while done < size:
        if chunk > size - done:
            chunk = size - done
        read_into(translate(va), out, done, chunk)
        va += chunk
        done += chunk
        chunk = PAGE_SIZE
    return bytes(out)


def copy_out(phys: PhysicalMemory, translate: Callable[[int], int],
             va: int, data: bytes) -> None:
    """Write ``data`` starting at virtual address ``va`` (same contract
    as :func:`copy_in`; ``translate`` should perform write checks)."""
    view = memoryview(data)
    while view:
        pa = translate(va)
        chunk = min(len(view), PAGE_SIZE - (va % PAGE_SIZE))
        # Hand phys.write the sub-view directly — it slices further
        # internally; no per-page bytes materialization.
        phys.write(pa, view[:chunk])
        va += chunk
        view = view[chunk:]
