"""File-local rules: checks that need no call graph.

SC001 (file-local arm)
    A direct wall-clock or unseeded-``random`` reference, in *every*
    analyzed file: the flow pass's observer excludes cut only its
    traversal, so each host-time read carries its own justified pragma.
SC006 (file-local arm)
    A direct ``PhysicalMemory`` primitive call (``<x>.phys.read(...)``
    and friends) in any ``taint-sources`` file, barrier files included:
    a barrier marshals through :mod:`repro.hw.memaccess`, never around
    it.
SC007
    A telemetry ``.span(...)`` or ``.site(...)`` must be a ``with``
    context expression or be returned to a caller who will enter it; an
    unclosed span or site corrupts the trace nesting.
SC008
    No bare ``except:`` in the trusted layers (``repro.monitor``,
    ``repro.hw``): swallowing ``SecurityViolation`` would turn a caught
    attack into silent corruption.

A hit the flow passes already reported at the same line is dropped by
the analyzer, so each violation is reported once.
"""

from __future__ import annotations

import ast

from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.determinism import classify
from repro.staticcheck.findings import StaticFinding
from repro.staticcheck.project import (ModuleInfo, Project, dotted_of,
                                       import_aliases)
from repro.staticcheck.taint import TRUSTED_FRAGMENTS

#: The raw primitives untrusted files must never call directly.
_PHYS_PRIMITIVES = frozenset({"read", "read_into", "write", "read_u64",
                              "write_u64", "zero_frame"})


def run(project: Project,
        config: StaticcheckConfig) -> list[StaticFinding]:
    """Every file-local hit in every analyzed file; unsorted."""
    findings: list[StaticFinding] = []
    for module in project.modules.values():
        if config.path_excluded(module.path):
            continue
        for node, rule, sink, message in _hits(module, config):
            symbol = project.symbol_at(module, node.lineno)
            findings.append(StaticFinding(
                rule=rule, path=module.path, line=node.lineno,
                symbol=symbol, sink=sink, message=message,
                chain=[symbol, sink]))
    return findings


def _hits(module: ModuleInfo, config: StaticcheckConfig):
    """(node, rule, sink, message) for each violation in one file."""
    aliases = import_aliases(module)
    untrusted = any(f in module.path for f in config.taint_sources)
    trusted = any(f in module.path for f in TRUSTED_FRAGMENTS)
    called: dict[int, bool] = {}
    managed: set[int] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            called[id(node.func)] = bool(node.args or node.keywords)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            managed.update(id(item.context_expr) for item in node.items)
        elif isinstance(node, ast.Return) and node.value is not None:
            managed.add(id(node.value))

    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = dotted_of(node, aliases)
            # A bare ``random.Random`` reference (a base class, an
            # annotation) is not a draw; only an argument-less call is.
            label = dotted and classify(dotted, called.get(id(node), True))
            if label in ("wall clock", "unseeded randomness"):
                yield node, "SC001", dotted, (
                    f"{label} {dotted} referenced directly; simulated "
                    f"results must be a pure function of the op sequence "
                    f"(use a seeded random.Random(seed), or justify a "
                    f"host-side read with a pragma)")
        elif isinstance(node, ast.ExceptHandler) and trusted \
                and node.type is None:
            yield node, "SC008", "except:", (
                "bare except in a trusted layer can swallow "
                "SecurityViolation; catch specific exceptions")
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            attr, receiver = node.func.attr, node.func.value
            if attr in ("span", "site") and id(node) not in managed:
                yield node, "SC007", ast.unparse(node.func), (
                    f"{attr} opened outside a with-statement; a {attr} "
                    f"that is never closed corrupts the trace nesting")
            elif untrusted and attr in _PHYS_PRIMITIVES \
                    and isinstance(receiver, ast.Attribute) \
                    and receiver.attr == "phys":
                yield node, "SC006", f"repro.hw.phys:PhysicalMemory.{attr}", (
                    f"direct PhysicalMemory.{attr}() from an untrusted "
                    f"layer; go through repro.hw.memaccess with a "
                    f"translate callback")
