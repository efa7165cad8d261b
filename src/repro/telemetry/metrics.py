"""The metrics registry: counters and log-scale histograms.

Every metric is keyed by ``(subsystem, name, labels)``, where ``labels``
is a small dict of dimensions (``enclave=3``, ``cpu=0``, ``func="nop"``)
— the per-enclave / per-vCPU attribution the paper's evaluation tables
need.  Metrics are cheap mutable cells; the registry interns them so hot
paths can hold a reference and skip the lookup.

Histograms are log-scale (base-2 buckets), which fits cycle costs that
span five orders of magnitude: an EENTER (~1.2 k cycles) and an EPC swap
(~15 k cycles) land in well-separated buckets without configuration.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MetricKey = tuple[str, str, tuple[tuple[str, object], ...]]

# The quantiles the latency summaries report (Stress-SGX-style tails).
SUMMARY_QUANTILES = (50.0, 95.0, 99.0)


def percentile_from_buckets(buckets: Iterable[Iterable[float]],
                            count: int, q: float,
                            lo_clamp: float | None = None,
                            hi_clamp: float | None = None) -> float | None:
    """The q-th percentile of a bucketed distribution, interpolated.

    ``buckets`` is the snapshot form ``[[lo, hi, n], ...]`` (any bucket
    scheme with half-open ``[lo, hi)`` ranges, sorted ascending).  Within
    the bucket holding the target rank the observation mass is assumed
    uniform, so the estimate is linear between the bucket bounds — on
    log2 buckets the worst-case error is one bucket width (a factor of
    two), which the tests pin against exact numpy percentiles.  The
    estimate is clamped to the observed ``[min, max]`` when known, which
    makes single-observation and single-bucket histograms exact at the
    edges.  Returns None for an empty distribution.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    if count <= 0:
        return None
    occupied = [(lo, hi, n) for lo, hi, n in buckets if n > 0]
    if not occupied:
        return None
    target = (q / 100.0) * count
    cumulative = 0.0
    value: float | None = None
    for lo, hi, n in occupied:
        if cumulative + n >= target:
            value = lo + (hi - lo) * max(target - cumulative, 0.0) / n
            break
        cumulative += n
    if value is None:               # q == 100 edge / float drift: top bucket
        value = occupied[-1][1]
    if lo_clamp is not None:
        value = max(value, lo_clamp)
    if hi_clamp is not None:
        value = min(value, hi_clamp)
    return value


def _label_key(labels: dict[str, object]) -> tuple[tuple[str, object], ...]:
    # Sort by key name only: label *values* may mix types (enclave_id=3
    # vs enclave_id="boot"), and comparing those would raise TypeError.
    return tuple(sorted(labels.items(), key=lambda kv: kv[0]))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter decrement: {amount}")
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}


class Histogram:
    """A log-scale (power-of-two bucket) histogram.

    Bucket ``0`` holds observations below 1; bucket ``k`` (k >= 1) holds
    observations in ``[2**(k-1), 2**k)``.
    """

    __slots__ = ("counts", "total", "count", "min", "max")
    kind = "histogram"

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.total = 0
        self.count = 0
        self.min: int | float | None = None
        self.max: int | float | None = None

    @staticmethod
    def bucket_index(value: int | float) -> int:
        if value < 1:
            return 0
        return int(value).bit_length()

    @staticmethod
    def bucket_bounds(index: int) -> tuple[int, int]:
        """The ``[lo, hi)`` range bucket ``index`` covers."""
        if index < 0:
            raise ValueError(f"negative bucket index: {index}")
        if index == 0:
            return (0, 1)
        return (1 << (index - 1), 1 << index)

    def observe(self, value: int | float) -> None:
        # bucket_index inlined: this runs twice per span exit.
        index = int(value).bit_length() if value >= 1 else 0
        self.counts[index] = self.counts.get(index, 0) + 1
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def percentile(self, q: float) -> float | None:
        """The q-th percentile, linearly interpolated inside its bucket.

        See :func:`percentile_from_buckets` for the estimation model;
        None on an empty histogram.
        """
        buckets = ([*self.bucket_bounds(i), n]
                   for i, n in sorted(self.counts.items()))
        return percentile_from_buckets(buckets, self.count, q,
                                       lo_clamp=self.min, hi_clamp=self.max)

    def percentiles(self, qs: Iterable[float] = SUMMARY_QUANTILES
                    ) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}``; empty when no data."""
        out = {}
        for q in qs:
            value = self.percentile(q)
            if value is not None:
                out[f"p{q:g}"] = value
        return out

    def snapshot(self) -> dict:
        buckets = [[*self.bucket_bounds(i), n]
                   for i, n in sorted(self.counts.items())]
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "buckets": buckets}


class MetricsRegistry:
    """All metrics of one machine, interned by (subsystem, name, labels)."""

    def __init__(self) -> None:
        self._metrics: dict[MetricKey, Counter | Histogram] = {}

    def _intern(self, cls, subsystem: str, name: str,
                labels: dict[str, object]):
        key = (subsystem, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {subsystem}.{name}{dict(key[2])} already registered "
                f"as {metric.kind}, not {cls.kind}")
        return metric

    def counter(self, subsystem: str, name: str, **labels) -> Counter:
        return self._intern(Counter, subsystem, name, labels)

    def histogram(self, subsystem: str, name: str, **labels) -> Histogram:
        return self._intern(Histogram, subsystem, name, labels)

    def clear(self) -> None:
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[tuple[MetricKey, object]]:
        return iter(self._metrics.items())

    def snapshot(self) -> list[dict]:
        """All metrics as JSON-ready dicts, deterministically ordered."""
        out = []
        for (subsystem, name, labels) in sorted(
                self._metrics, key=lambda k: (k[0], k[1], repr(k[2]))):
            metric = self._metrics[(subsystem, name, labels)]
            entry = {"subsystem": subsystem, "name": name,
                     "labels": {k: v for k, v in labels},
                     "type": metric.kind}
            entry.update(metric.snapshot())
            out.append(entry)
        return out
