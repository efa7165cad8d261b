"""YCSB workload generation (Cooper et al., SoCC'10).

Workload A (50% reads / 50% updates, zipfian request distribution) drives
the SQLite and Redis evaluations (Sec 7.4).  The zipfian generator is the
standard Gray et al. rejection-free construction YCSB itself uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator


class ZipfianGenerator:
    """Zipfian-distributed integers in [0, n) with exponent ``theta``."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 42) -> None:
        if n <= 0:
            raise ValueError("need a positive universe")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = ((1 - (2.0 / n) ** (1 - theta))
                     / (1 - self._zeta2 / self._zetan))

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        value = int(self.n * (self._eta * u - self._eta + 1) ** self._alpha)
        return min(value, self.n - 1)


@dataclass(frozen=True)
class Operation:
    """One YCSB operation."""

    kind: str          # "read" | "update" | "insert" | "scan"
    key: bytes
    value: bytes | None = None


def record_key(index: int) -> bytes:
    """YCSB-style key for record ``index``."""
    return b"user%012d" % index


def workload_a(n_records: int, n_ops: int, *, value_size: int = 1024,
               theta: float = 0.99, seed: int = 42) -> Iterator[Operation]:
    """Workload A: 50% reads, 50% updates, zipfian over loaded records."""
    zipf = ZipfianGenerator(n_records, theta=theta, seed=seed)
    rng = random.Random(seed ^ 0x5A5A)
    for _ in range(n_ops):
        key = record_key(zipf.next())
        if rng.random() < 0.5:
            yield Operation("read", key)
        else:
            yield Operation("update", key,
                            bytes([rng.randrange(256)]) * value_size)


def load_phase(n_records: int, *, value_size: int = 1024,
               seed: int = 7) -> Iterator[Operation]:
    """The initial dataset load."""
    rng = random.Random(seed)
    for i in range(n_records):
        yield Operation("insert", record_key(i),
                        bytes([rng.randrange(256)]) * value_size)


# The core YCSB workload mixes (Cooper et al., Table 1 of the YCSB paper).
# Each maps an operation kind to its probability; "scan" operations use
# SCAN_LENGTH records, workload D draws keys from the most recent inserts.
WORKLOAD_MIXES = {
    "A": {"read": 0.5, "update": 0.5},
    "B": {"read": 0.95, "update": 0.05},
    "C": {"read": 1.0},
    "D": {"read": 0.95, "insert": 0.05},
    "E": {"scan": 0.95, "insert": 0.05},
    "F": {"read": 0.5, "rmw": 0.5},
}
SCAN_LENGTH = 20


def workload(letter: str, n_records: int, n_ops: int, *,
             value_size: int = 1024, theta: float = 0.99,
             seed: int = 42) -> Iterator[Operation]:
    """Any of the six core YCSB workloads.

    ``rmw`` (workload F) is emitted as a read followed by an update of
    the same key, like the YCSB client performs it.
    """
    mix = WORKLOAD_MIXES.get(letter.upper())
    if mix is None:
        raise ValueError(f"unknown YCSB workload {letter!r}")
    zipf = ZipfianGenerator(n_records, theta=theta, seed=seed)
    rng = random.Random(seed ^ 0x5A5A)
    next_insert = n_records
    emitted = 0
    while emitted < n_ops:
        roll = rng.random()
        cumulative = 0.0
        kind = "read"
        for candidate, probability in mix.items():
            cumulative += probability
            if roll < cumulative:
                kind = candidate
                break
        if kind == "insert":
            yield Operation("insert", record_key(next_insert),
                            bytes([rng.randrange(256)]) * value_size)
            next_insert += 1
            emitted += 1
            continue
        if letter.upper() == "D":
            # Workload D reads "the latest" records.
            key = record_key(max(0, next_insert - 1 - zipf.next()))
        else:
            key = record_key(zipf.next())
        if kind == "rmw":
            yield Operation("read", key)
            yield Operation("update", key,
                            bytes([rng.randrange(256)]) * value_size)
            emitted += 2
            continue
        if kind == "update":
            yield Operation("update", key,
                            bytes([rng.randrange(256)]) * value_size)
        elif kind == "scan":
            yield Operation("scan", key)
        else:
            yield Operation("read", key)
        emitted += 1
