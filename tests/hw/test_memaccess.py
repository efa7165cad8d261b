"""``memaccess.copy_in``/``copy_out`` against a flat byte model.

Virtual pages map to scattered physical frames, some of which are never
written (they read as zero).  Every copy must match the same slice of a
flat ``bytearray`` that stands for the virtual address space, call
``translate`` once per page touched in ascending order, and take each
page's bytes before the next ``translate`` runs (a fault handler may
rewrite memory from inside the callback).
"""

import random

import pytest

from repro.errors import PhysicalMemoryError
from repro.hw import memaccess
from repro.hw.phys import PAGE_SIZE, PhysicalMemory

VPAGES = 12
FRAMES = 32


def _pairs(seed: int, count: int) -> list[tuple[int, int]]:
    """Seeded ``(va, size)`` pairs inside the mapped range, plus the edge
    cases: empty, exactly one aligned page, one byte either side of a
    page boundary, and the whole range."""
    rng = random.Random(seed)
    pairs = [(0, 0), (3 * PAGE_SIZE + 17, 0), (PAGE_SIZE, PAGE_SIZE),
             (2 * PAGE_SIZE - 1, 2), (5 * PAGE_SIZE - 1, PAGE_SIZE + 2),
             (0, VPAGES * PAGE_SIZE)]
    limit = VPAGES * PAGE_SIZE
    for _ in range(count):
        va = rng.randrange(limit)
        pairs.append((va, rng.randrange(limit - va + 1)))
    return pairs


class Space:
    """A virtual range over scattered frames, mirrored by ``flat``."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.phys = PhysicalMemory(FRAMES * PAGE_SIZE)
        self.frames = rng.sample(range(FRAMES), VPAGES)
        self.flat = bytearray(VPAGES * PAGE_SIZE)
        for page, frame in enumerate(self.frames):
            if page % 3 == 2:
                continue                # never written: reads as zero
            data = rng.randbytes(PAGE_SIZE)
            self.phys.write(frame * PAGE_SIZE, data)
            self.flat[page * PAGE_SIZE:(page + 1) * PAGE_SIZE] = data
        self.calls: list[int] = []

    def translate(self, va: int) -> int:
        self.calls.append(va)
        return self.frames[va // PAGE_SIZE] * PAGE_SIZE + va % PAGE_SIZE


def _pages(va: int, size: int) -> list[int]:
    if size <= 0:
        return []
    return list(range(va // PAGE_SIZE, (va + size - 1) // PAGE_SIZE + 1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_copy_in_matches_the_flat_model(seed):
    space = Space(seed)
    for va, size in _pairs(seed, 40):
        space.calls.clear()
        got = memaccess.copy_in(space.phys, space.translate, va, size)
        assert type(got) is bytes
        assert got == space.flat[va:va + size]
        assert [v // PAGE_SIZE for v in space.calls] == _pages(va, size)
        assert space.calls[:1] == ([va] if size else [])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_copy_out_matches_the_flat_model(seed):
    space = Space(seed)
    rng = random.Random(seed + 100)
    for va, size in _pairs(seed, 40):
        data = rng.randbytes(size)
        space.calls.clear()
        memaccess.copy_out(space.phys, space.translate, va, data)
        space.flat[va:va + size] = data
        assert [v // PAGE_SIZE for v in space.calls] == _pages(va, size)
        whole = memaccess.copy_in(space.phys, space.translate, 0,
                                  VPAGES * PAGE_SIZE)
        assert whole == space.flat


def test_a_page_rewritten_by_a_later_translate_keeps_its_read_bytes():
    space = Space(7)
    va, size = PAGE_SIZE - 100, 3 * PAGE_SIZE
    expected = bytes(space.flat[va:va + size])
    first_frame_pa = space.frames[0] * PAGE_SIZE

    def faulting_translate(page_va: int) -> int:
        pa = space.translate(page_va)
        if page_va // PAGE_SIZE > 0:
            # A fault handler fixing up a later page rewrites the first.
            space.phys.write(first_frame_pa, b"\xAA" * PAGE_SIZE)
        return pa

    got = memaccess.copy_in(space.phys, faulting_translate, va, size)
    assert got == expected
    assert space.phys.read(first_frame_pa + PAGE_SIZE - 100, 100) \
        == b"\xAA" * 100


def test_a_page_written_by_an_earlier_translate_is_read_as_written():
    # A callback that rewrites the page after its own (a fault handler
    # committing ahead) is seen: each page is copied after its translate.
    space = Space(8)
    va, size = PAGE_SIZE - 100, 3 * PAGE_SIZE

    def writing_translate(page_va: int) -> int:
        pa = space.translate(page_va)
        following = page_va // PAGE_SIZE + 1
        space.phys.write(space.frames[following] * PAGE_SIZE,
                         bytes([following]) * PAGE_SIZE)
        return pa

    got = memaccess.copy_in(space.phys, writing_translate, va, size)
    assert got == (bytes(space.flat[va:PAGE_SIZE]) + b"\x01" * PAGE_SIZE
                   + b"\x02" * PAGE_SIZE + b"\x03" * (size - 100
                                                      - 2 * PAGE_SIZE))


def test_whole_pages_rewritten_by_a_later_translate_keep_their_read_bytes():
    # Each whole page is a snapshot taken right after its own translate,
    # not a reference to a frame that a later callback may rewrite.
    space = Space(10)
    size = 4 * PAGE_SIZE
    expected = bytes(space.flat[:size])

    def rewriting_translate(page_va: int) -> int:
        pa = space.translate(page_va)
        for earlier in range(page_va // PAGE_SIZE):
            space.phys.write(space.frames[earlier] * PAGE_SIZE,
                             b"\xEE" * PAGE_SIZE)
        return pa

    assert memaccess.copy_in(space.phys, rewriting_translate, 0, size) \
        == expected


def test_a_negative_copy_in_raises_before_any_translate():
    space = Space(11)
    for va in (0, PAGE_SIZE - 1, 3 * PAGE_SIZE + 17):
        with pytest.raises(PhysicalMemoryError, match="negative length"):
            memaccess.copy_in(space.phys, space.translate, va, -1)
        with pytest.raises(PhysicalMemoryError, match="negative length"):
            memaccess.copy_in(space.phys, space.translate, va, -PAGE_SIZE)
    assert space.calls == []


def test_a_whole_page_translated_off_its_frame_base_raises():
    space = Space(12)

    def translate(page_va: int) -> int:
        pa = space.translate(page_va)
        return pa + 1 if page_va // PAGE_SIZE == 1 else pa

    with pytest.raises(PhysicalMemoryError, match="crosses a frame"):
        memaccess.copy_in(space.phys, translate, 0, 3 * PAGE_SIZE)
    assert [v // PAGE_SIZE for v in space.calls] == [0, 1]


# (va, size) with a multi-page copy whose pages are partial, full,
# partial; ``bad`` is the index of the page whose translate leaves memory.
_OUT_OF_RANGE = [(PAGE_SIZE - 100, PAGE_SIZE + 200, 0),     # partial first
                 (PAGE_SIZE - 100, PAGE_SIZE + 200, 2),     # partial last
                 (0, 3 * PAGE_SIZE, 1),                     # full page
                 (PAGE_SIZE, 200, 0)]                       # single page


@pytest.mark.parametrize("direction", ["copy_in", "copy_out"])
@pytest.mark.parametrize("shift", [FRAMES * PAGE_SIZE,       # past the end
                                   (FRAMES + 1) * PAGE_SIZE,
                                   -FRAMES * PAGE_SIZE])     # negative
@pytest.mark.parametrize("va,size,bad", _OUT_OF_RANGE)
def test_a_translate_outside_memory_raises(direction, shift, va, size, bad):
    space = Space(9)
    first = va // PAGE_SIZE

    def translate(page_va: int) -> int:
        pa = space.translate(page_va)
        if page_va // PAGE_SIZE - first == bad:
            pa += shift
        return pa

    with pytest.raises(PhysicalMemoryError, match="out of bounds"):
        if direction == "copy_in":
            memaccess.copy_in(space.phys, translate, va, size)
        else:
            memaccess.copy_out(space.phys, translate, va, b"\x77" * size)
    assert [v // PAGE_SIZE - first for v in space.calls] == \
        list(range(bad + 1))
