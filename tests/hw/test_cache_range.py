"""``Llc.access_range`` against a per-line ``access_ex`` loop.

The bulk kernel only tries the all-miss sweep proof, which scans every
cached line, when the cache holds at most ``SWEEP_PROOF_RATIO`` lines per
line of the range.  Small half-cached ranges on a big cache go straight
to the exact per-line loop; large cyclic sweeps still take the O(1)
all-miss branch.  A range equal to the one ascending run the cache holds
(``Llc._span``) returns at once, and every other mutation forgets the run.
"""

import copy
import random

import pytest

from repro.hw import cache
from repro.hw.cache import Llc


def _reference(llc: Llc, first: int, last: int, write: bool):
    """Per-line ``access_ex`` calls, folded into ``access_range``'s result."""
    hits = misses = dirty_evictions = 0
    runs: list[tuple[int, int]] = []
    for line in range(first, last + 1):
        hit, evicted_dirty = llc.access_ex(line, write=write)
        if hit:
            hits += 1
            continue
        misses += 1
        dirty_evictions += evicted_dirty
        if runs and runs[-1][1] == line:
            runs[-1] = (runs[-1][0], line + 1)
        else:
            runs.append((line, line + 1))
    return hits, misses, dirty_evictions, runs


def _observables(llc: Llc):
    return list(llc._lines.items()), llc.hits, llc.misses


def _record_proofs(monkeypatch) -> list[bool]:
    """Patch the sweep proof to log each verdict it returns."""
    proofs = []
    real_proof = Llc._sweep_evicts_all

    def spy(self, first, last):
        proofs.append(real_proof(self, first, last))
        return proofs[-1]

    monkeypatch.setattr(Llc, "_sweep_evicts_all", spy)
    return proofs


def _nearly_full_llc(first: int, n: int, *, spare: int) -> Llc:
    """A 1024-line cache, ``spare`` lines short of full, holding every
    other line of ``[first, first + n)`` among seeded random lines."""
    llc = Llc(1024 * 64)
    rng = random.Random(13)
    cached = list(range(first, first + n, 2))
    others = rng.sample(range(100_000, 200_000),
                        llc.capacity_lines - spare - len(cached))
    order = cached + others
    rng.shuffle(order)
    for line in order:
        llc.access(line, write=rng.random() < 0.5)
    return llc


@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
def test_small_half_cached_range_skips_the_sweep_proof(monkeypatch, write):
    first, n = 5000, 16
    llc = _nearly_full_llc(first, n, spare=3)
    assert len(llc) > cache.SWEEP_PROOF_RATIO * n
    clone = copy.deepcopy(llc)
    expected = _reference(clone, first, first + n - 1, write)

    def no_proof(self, first, last):
        raise AssertionError("sweep proof ran on a small range")

    monkeypatch.setattr(Llc, "_sweep_evicts_all", no_proof)
    got = llc.access_range(first, first + n - 1, write=write)

    assert got == expected
    hits, misses, dirty_evictions, runs = got
    assert (hits, misses) == (n // 2, n // 2)
    assert len(runs) == n // 2
    # Three misses filled the cache; the other five each evicted a line.
    assert len(llc) == llc.capacity_lines
    assert 0 < dirty_evictions <= 5
    assert _observables(llc) == _observables(clone)


def test_larger_than_cache_cyclic_sweep_takes_the_all_miss_branch(
        monkeypatch):
    llc = Llc(64 * 64)
    first, last = 0, 99                 # 100 lines through a 64-line cache
    llc.access_range(first, last, write=True)
    assert len(llc) == 64               # lines 36..99 remain, in order
    clone = copy.deepcopy(llc)
    expected = _reference(clone, first, last, False)

    proofs = _record_proofs(monkeypatch)
    got = llc.access_range(first, last)

    assert proofs == [True]
    assert got == expected == (0, 100, 64, [(first, last + 1)])
    assert _observables(llc) == _observables(clone)


def test_half_cached_range_within_the_ratio_still_tries_the_proof(
        monkeypatch):
    llc = Llc(64 * 64)
    for line in range(0, 32, 2):
        llc.access(line)
    assert len(llc) <= cache.SWEEP_PROOF_RATIO * 32
    clone = copy.deepcopy(llc)
    expected = _reference(clone, 0, 31, False)

    proofs = _record_proofs(monkeypatch)
    assert llc.access_range(0, 31) == expected
    assert proofs == [False]            # refuted: the per-line loop ran
    assert _observables(llc) == _observables(clone)


def _full_cover_llc(first: int, n: int, *, ascending: bool) -> Llc:
    """A cache holding exactly ``[first, first + n)``, every third line
    dirty, in ascending LRU order or in a seeded shuffle."""
    llc = Llc(1024 * 64)
    order = list(range(first, first + n))
    if not ascending:
        random.Random(5).shuffle(order)
    for line in order:
        llc.access(line, write=line % 3 == 0)
    return llc


@pytest.mark.parametrize("ascending, write", [
    (True, False),                      # web's first read of its document
    (False, False),
    (True, True),
    (False, True),
], ids=["ascending-read", "shuffled-read", "ascending-write",
        "shuffled-write"])
def test_all_hit_range_covering_every_cached_line(ascending, write):
    first, n = 7000, 257
    llc = _full_cover_llc(first, n, ascending=ascending)
    assert len(llc) == n
    assert (list(llc._lines) == sorted(llc._lines)) is ascending
    assert 0 < sum(llc._lines.values()) < n
    clone = copy.deepcopy(llc)
    expected = _reference(clone, first, first + n - 1, write)

    got = llc.access_range(first, first + n - 1, write=write)

    assert got == expected == (n, 0, 0, [])
    assert _observables(llc) == _observables(clone)
    assert list(llc._lines) == list(range(first, first + n))
    assert llc._span == (first, first + n - 1)


def _bulk(llc: Llc, first: int, last: int, write: bool):
    return llc.access_range(first, last, write=write)


#: One mutation between full covers, run as ``op(llc, range_op, first,
#: last)`` where ``range_op`` is ``_bulk`` on the cache under test and
#: ``_reference`` on its per-line clone.
DISTURBANCES = {
    "access_ex": lambda c, rng, f, l: c.access_ex(f + 3, write=True),
    "sub-range-read": lambda c, rng, f, l: rng(c, f + 2, f + 9, False),
    "suffix-write": lambda c, rng, f, l: rng(c, l - 7, l, True),
    "flush_line": lambda c, rng, f, l: c.flush_line(f + 4),
    "flush_range": lambda c, rng, f, l: c.flush_range((f + 4) * 64, 128),
    "flush_all": lambda c, rng, f, l: c.flush_all(),
}


@pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
@pytest.mark.parametrize("disturbance", sorted(DISTURBANCES))
def test_repeated_full_cover_across_a_mutation(disturbance, write):
    """Web's steady state: the same full-cover range on every request.
    From the second cover on it takes the remembered run (a write still
    dirties every line); a mutation in between must make the next cover
    recompute, not replay."""
    first, n = 7000, 256
    last = first + n - 1
    llc = _full_cover_llc(first, n, ascending=False)
    clone = copy.deepcopy(llc)

    def read_cover(c, rng):
        return rng(c, first, last, False)

    def cover(c, rng):
        return rng(c, first, last, write)

    def disturb(c, rng):
        return DISTURBANCES[disturbance](c, rng, first, last)

    for step in (read_cover, cover, cover, disturb, cover, cover):
        assert step(llc, _bulk) == step(clone, _reference)
        assert _observables(llc) == _observables(clone)
    assert llc._span == (first, last)
