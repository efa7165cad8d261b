"""Shared fixtures for the test suite."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.hw.machine import Machine, MachineConfig
from repro.staticcheck.analyzer import analyze
from repro.staticcheck.config import StaticcheckConfig


@pytest.fixture
def machine() -> Machine:
    """A default machine (AMD-SME encryption, deterministic TPM)."""
    return Machine()


@pytest.fixture
def small_machine() -> Machine:
    """A machine with a small reserved region (fast pool operations)."""
    config = MachineConfig(
        phys_size=256 * 1024 * 1024,
        reserved_base=64 * 1024 * 1024,
        reserved_size=64 * 1024 * 1024,
    )
    return Machine(config)


@pytest.fixture
def fake_tree(tmp_path):
    """Write ``{relative/path.py: source}`` under a fake ``repro`` root
    and return the root path (module names resolve as ``repro.*``)."""
    def build(files: dict[str, str]) -> Path:
        root = tmp_path / "repro"
        for rel, source in files.items():
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        return root
    return build


@pytest.fixture
def run_passes(fake_tree):
    """Build a fake tree and run the full analyzer over it."""
    def run(files: dict[str, str],
            config: StaticcheckConfig | None = None):
        root = fake_tree(files)
        return analyze([root], config or StaticcheckConfig())
    return run
