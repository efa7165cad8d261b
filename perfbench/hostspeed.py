"""Host time for the benchmark: the thread's CPU clock, at reference speed.

Host times are read from :func:`host_ns`, the benchmark thread's CPU
clock.  With nothing else to wait for, a request's CPU time is its wall
time, except that on a VM with steal-time accounting it leaves out the
stretches in which the hypervisor ran another guest: those stalls of
3-20 ms hit up to 3% of requests on a shared host and would decide p99.

The interpreter's speed itself also swings by up to ~2x over seconds as
other tenants share the core, its caches and its TLB.  The benchmark
therefore times a fixed pure-Python reference sample every
:data:`EVERY_NS` of host time and scales each host time by
``REFERENCE_NS / (the sample's local median duration)``: a host time then
reads as it would on a host where the sample takes exactly 2.4 ms.  The
sample has two parts, dict/bytes/integer work and scattered reads over
32 MB, and its duration is the geometric mean of the two: on the
sandbox, the first part alone under-corrected ``kv-ycsb-a`` and the second
alone over-corrected it (seed-to-seed spread of scaled ``host_ms_p50``
6.9% and 6.2%, against 1.4% for the mean).  The raw times are printed
beside the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

host_ns = time.thread_time_ns

REFERENCE_NS = 2_400_000         # the sample's duration at reference speed
EVERY_NS = 50_000_000            # one sample per 50 ms of measuring
_NEIGHBOURS = 2                  # samples each side in the local median

# Scattered reads over 32 MB miss the caches and the TLB, as the
# simulator's large dicts and page tables do.  It adds 32 MB to the
# process's resident memory, so to every peak_rss_mb.
_SPAN = bytearray(32 * 1024 * 1024)


def _interpreter_work() -> int:
    """Dict, bytes and integer work of the kind the simulator does."""
    table: dict[int, int] = {}
    buf = bytearray(64)
    total = 0
    for i in range(4000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        buf[i & 63] = i & 255
        total += len(bytes(buf[:16])) + (i * 7 >> 3)
    return total


def _memory_work() -> int:
    """Scattered reads over :data:`_SPAN`."""
    span = _SPAN
    mask = len(span) - 1
    step = 0x9E3779B1
    total = 0
    for i in range(6000):
        total += span[(i * step) & mask]
        step = (step * 1103515245 + 12345) & 0xFFFFFFFF
    return total


class HostTimer:
    """Host time of a stretch of work, scaled to reference speed.

    The work calls :meth:`tick` often; once a segment is :data:`EVERY_NS`
    long, a tick closes it and times the reference sample, whose own time
    is left out.  Each segment is scaled by the median sample time among
    the samples within two of it on either side.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.segments: list[tuple[int, int]] = []     # (start, end) ns
        self._start = self._sample()

    def _sample(self) -> int:
        start = host_ns()
        _interpreter_work()
        middle = host_ns()
        _memory_work()
        end = host_ns()
        self.samples.append(math.sqrt((middle - start) * (end - middle)))
        return end

    def tick(self) -> bool:
        """Close the segment if it is long enough; True when it did."""
        now = host_ns()
        if now - self._start < EVERY_NS:
            return False
        self.segments.append((self._start, now))
        self._start = self._sample()
        return True

    def stop(self) -> None:
        self.segments.append((self._start, host_ns()))
        self._sample()                  # a sample after the last segment

    def scales(self) -> list[float]:
        """The reference-speed scale of each segment."""
        return [REFERENCE_NS / statistics.median(
                    self.samples[max(0, i - _NEIGHBOURS):i + _NEIGHBOURS + 1])
                for i in range(len(self.segments))]

    def elapsed(self) -> tuple[int, float]:
        """(raw ns, reference-speed ns) over all segments."""
        raw = ref = 0
        for (start, end), scale in zip(self.segments, self.scales()):
            raw += end - start
            ref += (end - start) * scale
        return raw, ref
