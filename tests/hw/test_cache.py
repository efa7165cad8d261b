"""Tests for the LLC model."""

import pytest

from repro.hw.cache import Llc


def test_miss_then_hit():
    llc = Llc(1024)
    assert not llc.access(1)
    assert llc.access(1)
    assert llc.misses == 1
    assert llc.hits == 1


def test_lru_eviction_order():
    llc = Llc(2 * 64)
    llc.access(1)
    llc.access(2)
    llc.access(1)        # 1 is now most recent
    llc.access(3)        # evicts 2
    assert llc.contains(1)
    assert not llc.contains(2)
    assert llc.contains(3)


def test_capacity_in_lines():
    llc = Llc(640, line_size=64)
    assert llc.capacity_lines == 10
    for line in range(10):
        llc.access(line)
    assert len(llc) == 10
    llc.access(100)
    assert len(llc) == 10


def test_write_marks_dirty_promotion():
    llc = Llc(1024)
    llc.access(5, write=False)
    llc.access(5, write=True)   # promote clean->dirty on hit
    assert llc.contains(5)


def test_flush_line():
    llc = Llc(1024)
    llc.access(7)
    llc.flush_line(7)
    assert not llc.contains(7)


def test_flush_range_covers_partial_lines():
    llc = Llc(4096)
    for line in range(10):
        llc.access(line)
    # Bytes 100..300 live in lines 1..4.
    llc.flush_range(100, 201)
    assert llc.contains(0)
    for line in range(1, 5):
        assert not llc.contains(line)
    assert llc.contains(5)


@pytest.mark.parametrize("length", [0, -64])
def test_flush_range_of_no_bytes_flushes_nothing(length):
    llc = Llc(4096)
    for line in range(9, 12):
        llc.access(line)
    llc.flush_range(640, length)        # byte 640 is in line 10
    assert [llc.contains(line) for line in range(9, 12)] == [True] * 3


def test_flush_all():
    llc = Llc(1024)
    llc.access(1)
    llc.access(2)
    llc.flush_all()
    assert len(llc) == 0


def test_too_small_rejected():
    with pytest.raises(ValueError):
        Llc(32, line_size=64)
