"""Tests for the metrics registry: counters and histograms."""

import pytest

from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_decrement(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestHistogram:
    def test_bucket_boundaries(self):
        # Bucket 0 is [0, 1); bucket k (k >= 1) is [2**(k-1), 2**k).
        assert Histogram.bucket_index(0) == 0
        assert Histogram.bucket_index(0.5) == 0
        assert Histogram.bucket_index(1) == 1
        assert Histogram.bucket_index(2) == 2
        assert Histogram.bucket_index(3) == 2
        assert Histogram.bucket_index(4) == 3
        for k in range(1, 20):
            lo, hi = Histogram.bucket_bounds(k)
            assert Histogram.bucket_index(lo) == k
            assert Histogram.bucket_index(hi - 1) == k
            assert Histogram.bucket_index(hi) == k + 1

    def test_bucket_bounds_edges(self):
        assert Histogram.bucket_bounds(0) == (0, 1)
        assert Histogram.bucket_bounds(1) == (1, 2)
        assert Histogram.bucket_bounds(5) == (16, 32)
        with pytest.raises(ValueError):
            Histogram.bucket_bounds(-1)

    def test_observe_aggregates(self):
        h = Histogram()
        for v in (0, 1, 3, 1200):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 1204
        assert snap["min"] == 0
        assert snap["max"] == 1200
        # 1200 lands in [1024, 2048).
        assert [1024, 2048, 1] in snap["buckets"]


class TestMetricsRegistry:
    def test_interns_by_subsystem_name_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("sdk", "calls", enclave=1)
        b = reg.counter("sdk", "calls", enclave=1)
        c = reg.counter("sdk", "calls", enclave=2)
        assert a is b
        assert a is not c
        assert len(reg) == 2

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("x", "y", p=1, q=2)
        b = reg.counter("x", "y", q=2, p=1)
        assert a is b

    def test_mixed_type_label_values_intern(self):
        # Interning sorts by key name only: label *values* may mix types
        # across call sites (enclave=3 vs enclave="boot"), and sorting
        # (key, value) pairs would compare 3 < "boot" and raise
        # TypeError.
        reg = MetricsRegistry()
        a = reg.counter("monitor", "swap", enclave=3, phase="steady")
        b = reg.counter("monitor", "swap", phase="steady", enclave=3)
        c = reg.counter("monitor", "swap", enclave="boot", phase=7)
        assert a is b
        assert a is not c
        assert len(reg) == 2

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("sdk", "calls")
        with pytest.raises(TypeError):
            reg.histogram("sdk", "calls")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("sdk", "calls", func="nop").inc(3)
        reg.counter("os", "procs").inc(2)
        reg.histogram("world", "lat").observe(100)
        snap = reg.snapshot()
        assert [e["subsystem"] for e in snap] == ["os", "sdk", "world"]
        by_name = {e["name"]: e for e in snap}
        assert by_name["calls"]["labels"] == {"func": "nop"}
        assert by_name["calls"]["value"] == 3
        assert by_name["procs"]["type"] == "counter"
        assert by_name["lat"]["count"] == 1
