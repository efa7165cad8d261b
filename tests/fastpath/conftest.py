"""Fixtures for the fast-path A/B equivalence suite.

Every test here switches ``repro.hw.fastpath`` modes in-process; the
``restore_fastpath`` autouse fixture re-reads the environment afterwards
so test order never leaks a mode into unrelated suites.
"""

from __future__ import annotations

import pytest

from repro.hw import fastpath

# The modes every equivalence test sweeps.
ALL_MODES = (fastpath.MODE_LEGACY, fastpath.MODE_PYTHON)


@pytest.fixture(autouse=True)
def restore_fastpath():
    yield
    fastpath.set_mode(None)
