"""Property tests: physical memory behaves like one flat bytearray."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PhysicalMemoryError
from repro.hw.phys import PAGE_SIZE, PhysicalMemory

SIZE = 16 * PAGE_SIZE


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, SIZE - 1),
                          st.binary(min_size=1, max_size=3 * PAGE_SIZE)),
                max_size=20))
def test_matches_flat_bytearray(writes):
    phys = PhysicalMemory(SIZE)
    reference = bytearray(SIZE)
    for addr, data in writes:
        data = data[: SIZE - addr]
        if not data:
            continue
        phys.write(addr, data)
        reference[addr:addr + len(data)] = data
    # Full-range readback, plus a few straddling windows.
    assert phys.read(0, SIZE) == bytes(reference)
    for addr, data in writes[:5]:
        window = min(len(data) + 100, SIZE - addr)
        assert phys.read(addr, window) == bytes(
            reference[addr:addr + window])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, SIZE - 8), st.integers(0, 2 ** 64 - 1))
def test_u64_roundtrip_anywhere(addr, value):
    phys = PhysicalMemory(SIZE)
    phys.write_u64(addr, value)
    assert phys.read_u64(addr) == value


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, PAGE_SIZE),
                          st.binary(min_size=0, max_size=PAGE_SIZE)),
                max_size=20))
def test_single_frame_writes_at_the_end_match_flat_bytearray(writes):
    # Each write ends ``back`` bytes before the end of memory or runs
    # past it; the ones that fit in one frame take the fast path.
    phys = PhysicalMemory(SIZE)
    reference = bytearray(SIZE)
    for back, data in writes:
        addr = SIZE - back
        if len(data) > back:
            try:
                phys.write(addr, data)
            except PhysicalMemoryError as exc:
                assert "out of bounds" in str(exc)
            else:
                raise AssertionError("a write past the end went through")
            continue
        phys.write(addr, data)
        reference[addr:addr + len(data)] = data
    assert phys.read(0, SIZE) == bytes(reference)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2 * PAGE_SIZE, SIZE + 2 * PAGE_SIZE),
       st.integers(0, 2 * PAGE_SIZE))
def test_write_raises_exactly_where_the_range_check_does(addr, length):
    phys = PhysicalMemory(SIZE)
    expected = None
    try:
        phys._check_range(addr, length)
    except PhysicalMemoryError as exc:
        expected = str(exc)
    try:
        phys.write(addr, b"\x5a" * length)
    except PhysicalMemoryError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert phys.read(addr, length) == b"\x5a" * length
