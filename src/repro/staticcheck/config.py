"""Configuration for the static verifier: ``[tool.repro-staticcheck]``.

All keys are optional; the defaults encode the repository's actual
trust and charging structure so a bare ``python -m repro.staticcheck
src/repro`` is meaningful.  Path values are substring fragments matched
against POSIX-style file paths.

Recognized keys::

    [tool.repro-staticcheck]
    disable = ["SC005"]                 # rules turned off entirely
    exclude = ["repro/vendored/"]       # paths skipped by every pass
    baseline = "staticcheck-baseline.json"   # relative to pyproject
    determinism-roots = ["repro/hw/", "repro/monitor/", "repro/osim/"]
    determinism-exclude = ["repro/telemetry/"]   # traversal cut here
    charge-entry-points = ["repro.monitor.rustmonitor:RustMonitor.*"]
    charge-exempt = ["RustMonitor.initialize_keys -- boot-time setup"]
    taint-sources = ["repro/apps/", "repro/osim/", "repro/sdk/"]
    taint-barriers = ["repro/hw/memaccess.py", ...]
    taint-sinks = ["repro.hw.phys:PhysicalMemory.read", ...]  # extras
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_BASELINE = "staticcheck-baseline.json"

DEFAULT_DETERMINISM_ROOTS = (
    "repro/hw/", "repro/monitor/", "repro/osim/")

# Observer layers the determinism traversal does not descend into:
# telemetry/profiler/flight-recorder code may read host state such as
# the environment, but never the simulated clock's inputs (the runtime
# zero-perturbation pins check that).  SC001's file-local arm still
# checks each of their files for direct wall-clock and unseeded-random
# reads.
DEFAULT_DETERMINISM_EXCLUDE = (
    "repro/telemetry/", "repro/profiler/", "repro/flightrec/",
    "repro/bench/", "repro/analysis/", "repro/sanitizer/",
    "repro/staticcheck/")

DEFAULT_CHARGE_ENTRY_POINTS = (
    "repro.monitor.rustmonitor:RustMonitor.*",
    "repro.monitor.world:WorldSwitchEngine.*",
    "repro.hw.memmodel:MemorySubsystem.touch",
    "repro.hw.memmodel:MemorySubsystem.touch_sequential",
    "repro.hw.memmodel:MemorySubsystem.compute",
    "repro.hw.memmodel:MemorySubsystem.memcpy",
    "repro.hw.cpu:Cpu.charge_steps",
)

DEFAULT_CHARGE_EXEMPT: tuple[str, ...] = ()

DEFAULT_TAINT_SOURCES = ("repro/apps/", "repro/osim/", "repro/sdk/")

DEFAULT_TAINT_BARRIERS = (
    "repro/sdk/edger8r.py", "repro/sdk/edl.py", "repro/sdk/urts.py",
    "repro/sdk/trts.py", "repro/hw/memaccess.py")


def _split_justified(entries: tuple[str, ...]) -> dict[str, str]:
    """Parse ``"pattern -- why"`` entries into pattern -> justification."""
    out: dict[str, str] = {}
    for entry in entries:
        pattern, _, why = entry.partition("--")
        out[pattern.strip()] = why.strip()
    return out


@dataclass
class StaticcheckConfig:
    """Resolved ``[tool.repro-staticcheck]`` settings."""

    disable: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    baseline: str = DEFAULT_BASELINE
    determinism_roots: tuple[str, ...] = DEFAULT_DETERMINISM_ROOTS
    determinism_exclude: tuple[str, ...] = DEFAULT_DETERMINISM_EXCLUDE
    charge_entry_points: tuple[str, ...] = DEFAULT_CHARGE_ENTRY_POINTS
    charge_exempt: tuple[str, ...] = DEFAULT_CHARGE_EXEMPT
    taint_sources: tuple[str, ...] = DEFAULT_TAINT_SOURCES
    taint_barriers: tuple[str, ...] = DEFAULT_TAINT_BARRIERS
    taint_sinks: tuple[str, ...] = ()
    pyproject_dir: Path | None = None

    def __post_init__(self) -> None:
        self.charge_exemptions: dict[str, str] = \
            _split_justified(self.charge_exempt)

    def rule_enabled(self, rule: str) -> bool:
        """Whether ``rule`` runs at all."""
        return rule not in self.disable

    def path_excluded(self, path: str) -> bool:
        """Globally out-of-scope paths (matched as substrings)."""
        return any(fragment in path for fragment in self.exclude)

    def baseline_path(self) -> Path | None:
        """Absolute baseline location, if a pyproject anchored one."""
        if self.pyproject_dir is None:
            return None
        return self.pyproject_dir / self.baseline


_KEYS = {
    "disable": "disable",
    "exclude": "exclude",
    "determinism-roots": "determinism_roots",
    "determinism-exclude": "determinism_exclude",
    "charge-entry-points": "charge_entry_points",
    "charge-exempt": "charge_exempt",
    "taint-sources": "taint_sources",
    "taint-barriers": "taint_barriers",
    "taint-sinks": "taint_sinks",
}


def load_staticcheck_config(pyproject: Path | None) -> StaticcheckConfig:
    """Read ``[tool.repro-staticcheck]``; defaults when absent."""
    if pyproject is None or not pyproject.is_file():
        return StaticcheckConfig()
    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("repro-staticcheck", {})
    kwargs: dict = {"pyproject_dir": pyproject.parent}
    for toml_key, attr in _KEYS.items():
        if toml_key in table:
            kwargs[attr] = tuple(table[toml_key])
    if "baseline" in table:
        kwargs["baseline"] = str(table["baseline"])
    return StaticcheckConfig(**kwargs)


def find_config(start: Path) -> StaticcheckConfig:
    """Load the nearest pyproject.toml at or above ``start``."""
    start = start.resolve()
    for directory in [start, *start.parents]:
        if (directory / "pyproject.toml").is_file():
            return load_staticcheck_config(directory / "pyproject.toml")
    return StaticcheckConfig()
