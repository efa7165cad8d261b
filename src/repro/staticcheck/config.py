"""The static verifier's policy: which code each pass treats as what.

The policy is declared here once, as code; there is no configuration
file.  Path values are substring fragments matched against POSIX-style
file paths.  A finding the policy produces is accepted only by a
justified pragma at the code it waives (``# repro-lint:
disable=SCnnn -- why``), never by a list kept elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

# SC001 roots: the cycle-charged layers, plus the observers that sit on
# the charged path.  The request tracer stamps trace ids at SDK and
# monitor hook sites, and the critical-path analyzer promises
# bit-identical reports.
DEFAULT_DETERMINISM_ROOTS = (
    "repro/hw/", "repro/monitor/", "repro/osim/",
    "repro/telemetry/requests.py",
    "repro/analysis/critpath.py",
)

# Host-side observers, exporters and renderers the determinism
# traversal does not descend into.  They are named file by file where
# a package also holds a root, because exclusion beats roots: a bare
# "repro/telemetry/" would silently drop the enrolled roots.  The
# excludes cut only the call-graph traversal; SC001's file-local arm
# still checks each of these files for direct wall-clock and
# unseeded-random reads.
DEFAULT_DETERMINISM_EXCLUDE = (
    "repro/telemetry/core.py", "repro/telemetry/metrics.py",
    "repro/telemetry/export.py", "repro/telemetry/schema.py",
    "repro/telemetry/sink.py", "repro/telemetry/__init__.py",
    "repro/profiler.py", "repro/flightrec/", "repro/bench/",
    "repro/sanitizer/", "repro/staticcheck/",
)

#: SC003/SC005: public entry points that must reach a charge site.
CHARGE_ENTRY_POINTS = (
    "repro.monitor.rustmonitor:RustMonitor.*",
    "repro.monitor.world:WorldSwitchEngine.*",
    "repro.hw.memmodel:MemorySubsystem.touch",
    "repro.hw.memmodel:MemorySubsystem.touch_sequential",
    "repro.hw.memmodel:MemorySubsystem.compute",
    "repro.hw.memmodel:MemorySubsystem.memcpy",
    "repro.hw.cpu:Cpu.charge_steps",
)

#: SC006: the untrusted layers whose values are tainted.
TAINT_SOURCES = ("repro/apps/", "repro/osim/", "repro/sdk/")

#: SC006: the marshalling/validation layers that clear taint.
TAINT_BARRIERS = (
    "repro/sdk/edger8r.py", "repro/sdk/edl.py", "repro/sdk/urts.py",
    "repro/sdk/trts.py", "repro/hw/memaccess.py")


@dataclass
class StaticcheckConfig:
    """Per-run knobs for :func:`repro.staticcheck.analyzer.analyze`."""

    disable: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    determinism_roots: tuple[str, ...] = DEFAULT_DETERMINISM_ROOTS
    determinism_exclude: tuple[str, ...] = DEFAULT_DETERMINISM_EXCLUDE

    def rule_enabled(self, rule: str) -> bool:
        """Whether ``rule`` runs at all."""
        return rule not in self.disable

    def path_excluded(self, path: str) -> bool:
        """Globally out-of-scope paths (matched as substrings)."""
        return any(fragment in path for fragment in self.exclude)
