"""The static verifier for the reproduction's core contracts.

The runtime sanitizer checks one *run* at a time; this package checks
the source, and is the repository's only static checker: a
conservative whole-program analysis over ``src/repro`` — real symbol
table, import/alias resolution, class method dispatch — running three
interprocedural passes plus file-local checks:

determinism (SC001/SC002)
    No function reachable from cycle-charged code (the hw/monitor/osim
    hot paths) may transitively reach a wall clock, unseeded randomness,
    ``os.environ`` or an ``id()``-keyed value.  Unordered-``set``
    iteration feeding charges or digests is flagged too.  Violations
    print the full call chain from the charged root to the forbidden
    source.  A file-local arm flags any direct wall-clock or
    unseeded-``random`` reference in every analyzed file; no module
    under ``src/repro`` reads a host clock (host time is perfbench's).

charge coverage (SC003/SC005/SC009)
    Every configured public ``RustMonitor`` / hw entry point must reach
    a ``_charge_hypercall`` / ``CycleCounter.charge`` /
    ``Cpu.charge_steps`` site over precisely resolved calls, with
    uncharged exit paths reported separately.  Every literal charge
    category (or f-string head) must be declared in
    ``repro.hw.cycles.CATEGORIES``.  (SC004, a fast-path branch-parity
    rule, is retired; its number is not reused.)

boundary taint (SC006)
    Values originating in the untrusted layers (``sdk``, ``apps``,
    ``osim``) must flow through the marshalling/validation layers
    (``edger8r``/EDL/uRTS/tRTS, ``repro.hw.memaccess``, or a public
    ``RustMonitor`` hypercall) before reaching trusted monitor/hw
    sinks such as raw physical memory, frame pools or page tables.  A
    file-local arm flags direct ``PhysicalMemory`` primitive calls in
    every untrusted file, barriers included.

hygiene (SC007/SC008)
    Telemetry spans are context-managed or returned; no bare
    ``except:`` in the trusted monitor/hw layers.

Run it with ``python -m repro.staticcheck src/repro`` (text, JSON or
SARIF output).  Findings are gated against a committed baseline so CI
fails only on *new* violations; suppression pragmas read
``# repro-lint: disable=SCnnn -- why``.  See ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from repro.staticcheck.analyzer import analyze
from repro.staticcheck.baseline import Baseline, BaselineDelta
from repro.staticcheck.config import StaticcheckConfig, load_staticcheck_config
from repro.staticcheck.findings import ALL_SC_RULES, StaticFinding
from repro.staticcheck.project import Project

__all__ = [
    "ALL_SC_RULES",
    "Baseline",
    "BaselineDelta",
    "Project",
    "StaticFinding",
    "StaticcheckConfig",
    "analyze",
    "load_staticcheck_config",
]
