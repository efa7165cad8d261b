"""Tests for physical memory and frame pools."""

import pytest

from repro.errors import PhysicalMemoryError
from repro.hw.phys import (FREE, MONITOR, NORMAL, PAGE_SIZE, FramePool, Owner,
                           OwnerKind, PhysicalMemory, enclave_owner)


@pytest.fixture
def phys():
    return PhysicalMemory(1024 * PAGE_SIZE)


def test_read_write_roundtrip(phys):
    phys.write(0x1234, b"hello")
    assert phys.read(0x1234, 5) == b"hello"


def test_unwritten_memory_reads_zero(phys):
    assert phys.read(0x5000, 16) == b"\x00" * 16


def test_cross_page_write(phys):
    data = bytes(range(100))
    phys.write(PAGE_SIZE - 50, data)
    assert phys.read(PAGE_SIZE - 50, 100) == data


def test_out_of_range_read_rejected(phys):
    with pytest.raises(PhysicalMemoryError):
        phys.read(phys.size - 4, 8)


def test_negative_length_rejected(phys):
    with pytest.raises(PhysicalMemoryError):
        phys.read(0, -1)


def test_read_into_copies_one_frame_at_an_offset(phys):
    phys.write(0x2010, b"abcdef")
    out = bytearray(10)
    phys.read_into(0x2010, out, 2, 6)
    assert out == b"\x00\x00abcdef\x00\x00"


def test_read_into_skips_a_never_written_frame(phys):
    # The caller's buffer is left as it was: it must start zeroed.
    out = bytearray(b"\xff" * 8)
    phys.read_into(0x9000, out, 0, 8)
    assert out == b"\xff" * 8


def test_read_into_rejects_a_frame_crossing_or_out_of_range(phys):
    out = bytearray(PAGE_SIZE)
    with pytest.raises(PhysicalMemoryError, match="crosses a frame"):
        phys.read_into(PAGE_SIZE - 4, out, 0, 8)
    with pytest.raises(PhysicalMemoryError):
        phys.read_into(phys.size, out, 0, 1)
    with pytest.raises(PhysicalMemoryError):
        phys.read_into(0, out, 0, -1)


def test_u64_helpers(phys):
    phys.write_u64(0x100, 0xDEADBEEF12345678)
    assert phys.read_u64(0x100) == 0xDEADBEEF12345678


def test_owner_defaults_to_free(phys):
    assert phys.owner_of(0x2000) == FREE


def test_set_owner_and_query(phys):
    phys.set_owner(0x3000, MONITOR, npages=2)
    assert phys.owner_of(0x3000) == MONITOR
    assert phys.owner_of(0x4000 + 10) == MONITOR
    assert phys.owner_of(0x5000) == FREE


def test_enclave_owner_tag():
    owner = enclave_owner(7)
    assert owner.kind is OwnerKind.ENCLAVE
    assert owner.enclave_id == 7


def test_enclave_owner_requires_id():
    with pytest.raises(ValueError):
        Owner(OwnerKind.ENCLAVE)
    with pytest.raises(ValueError):
        Owner(OwnerKind.NORMAL, enclave_id=3)


def test_unaligned_set_owner_rejected(phys):
    with pytest.raises(PhysicalMemoryError):
        phys.set_owner(0x3001, MONITOR)


def test_zero_frame_scrubs(phys):
    phys.write(0x6000, b"secret")
    phys.zero_frame(0x6000)
    assert phys.read(0x6000, 6) == b"\x00" * 6


def test_bad_size_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory(100)


class TestFramePool:
    def test_alloc_tags_and_scrubs(self, phys):
        pool = FramePool(phys, 0, 16 * PAGE_SIZE, MONITOR)
        pa = pool.alloc()
        assert phys.owner_of(pa) == MONITOR
        assert phys.read(pa, 8) == b"\x00" * 8

    def test_alloc_returns_distinct_frames(self, phys):
        pool = FramePool(phys, 0, 16 * PAGE_SIZE, NORMAL)
        frames = {pool.alloc() for _ in range(16)}
        assert len(frames) == 16

    def test_exhaustion(self, phys):
        pool = FramePool(phys, 0, 2 * PAGE_SIZE, NORMAL)
        pool.alloc()
        pool.alloc()
        with pytest.raises(PhysicalMemoryError):
            pool.alloc()

    def test_free_recycles(self, phys):
        pool = FramePool(phys, 0, PAGE_SIZE, NORMAL)
        pa = pool.alloc()
        phys.write(pa, b"secret")
        pool.free(pa)
        assert phys.owner_of(pa) == FREE
        pa2 = pool.alloc()
        assert pa2 == pa
        assert phys.read(pa2, 6) == b"\x00" * 6

    def test_free_foreign_frame_rejected(self, phys):
        pool = FramePool(phys, 0, PAGE_SIZE, NORMAL)
        with pytest.raises(PhysicalMemoryError):
            pool.free(42 * PAGE_SIZE)

    def test_contains(self, phys):
        pool = FramePool(phys, PAGE_SIZE, 2 * PAGE_SIZE, NORMAL)
        assert pool.contains(PAGE_SIZE)
        assert not pool.contains(0)
        assert not pool.contains(3 * PAGE_SIZE)

    def test_free_pages_counter(self, phys):
        pool = FramePool(phys, 0, 4 * PAGE_SIZE, NORMAL)
        assert pool.free_pages == 4
        pa = pool.alloc()
        assert pool.free_pages == 3
        pool.free(pa)
        assert pool.free_pages == 4
