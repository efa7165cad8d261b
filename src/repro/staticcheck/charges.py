"""SC003/SC005: interprocedural charge-coverage passes.

SC003: every configured public entry point (``RustMonitor`` hypercalls,
the world-switch engine, the memory-subsystem hot methods) must *reach*
a cycle-charge site — ``_charge_hypercall``, ``CycleCounter.charge`` or
``Cpu.charge_steps`` — through a chain of precisely resolved calls
(its own body, ``self.``/``super()`` helpers, module functions).
Name-based dispatch edges do not count: a fan-out guess that happens to
hit a charging method proves nothing about the entry point.

SC005 is the all-paths refinement: an entry point that does charge
somewhere may still have an exit path that returns a real value without
ever charging.  A lightweight path walk over the statement tree finds
such exits; ``return <constant>`` guards (the zero-work early-outs) and
``raise`` terminations are exempt, and a call to a function that itself
charges on every path counts as charging.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from repro.staticcheck.callgraph import CHARGE_ATTRS, FunctionFacts
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.findings import StaticFinding
from repro.staticcheck.project import FunctionInfo, Project
from repro.staticcheck.reach import bfs_reachable, chain_to


def _entry_points(project: Project,
                  config: StaticcheckConfig) -> list[FunctionInfo]:
    entries = []
    for qualname, info in project.functions.items():
        if not info.is_public or info.is_property:
            continue
        if config.path_excluded(info.path):
            continue
        if any(fnmatch(qualname, pattern)
               for pattern in config.charge_entry_points):
            entries.append(info)
    return entries


def _exemption_for(info: FunctionInfo,
                   config: StaticcheckConfig) -> str | None:
    short = f"{info.class_name}.{info.name}" if info.class_name \
        else info.name
    for pattern, why in config.charge_exemptions.items():
        if fnmatch(short, pattern) or fnmatch(info.qualname, pattern):
            return why
    return None


def run(project: Project, facts: dict[str, FunctionFacts],
        config: StaticcheckConfig) -> list[StaticFinding]:
    """Run the charge-coverage passes; returns unsorted findings."""
    findings: list[StaticFinding] = []
    walker = _MustChargeIndex(project, facts)

    for info in _entry_points(project, config):
        if _exemption_for(info, config) is not None:
            continue
        parents = bfs_reachable([info.qualname], facts, precise_only=True)
        charge_holder = next(
            (q for q in parents
             if any(s.attr in CHARGE_ATTRS for s in facts[q].calls)),
            None)
        if charge_holder is None:
            findings.append(StaticFinding(
                rule="SC003", path=info.path, line=info.lineno,
                symbol=info.qualname, sink="no-charge",
                message=(f"public entry point {info.name}() reaches no "
                         f"cycle-charge site through any call chain; "
                         f"un-charged entry points silently skew every "
                         f"cycle table"),
                chain=[info.qualname]))
            continue
        for line, expr in walker.uncharged_exits(info.qualname):
            findings.append(StaticFinding(
                rule="SC005", path=info.path, line=line,
                symbol=info.qualname, sink=f"return {expr}",
                message=(f"{info.name}() charges on some paths (e.g. via "
                         f"{' -> '.join(chain_to(parents, charge_holder))})"
                         f" but the exit at line {line} returns "
                         f"{expr!r} without charging"),
                chain=[info.qualname]))

    return findings


# ---------------------------------------------------------- must-charge ----


class _MustChargeIndex:
    """Memoized all-paths charge analysis over the statement tree."""

    def __init__(self, project: Project,
                 facts: dict[str, FunctionFacts]) -> None:
        self.project = project
        self.facts = facts
        self._memo: dict[str, bool] = {}
        self._stack: set[str] = set()

    # -- public API -----------------------------------------------------------

    def must_charge(self, qualname: str) -> bool:
        """True when every execution of ``qualname`` charges cycles
        (guard returns of constants and raises excepted)."""
        if qualname in self._memo:
            return self._memo[qualname]
        if qualname in self._stack:
            return False              # recursion: conservative
        info = self.project.functions.get(qualname)
        if info is None:
            return False
        self._stack.add(qualname)
        try:
            exits, charged_end, terminal = self._walk(
                info.node.body, False, qualname)
            result = not exits and (charged_end or terminal)
            self._memo[qualname] = result
        finally:
            self._stack.discard(qualname)
        return result

    def uncharged_exits(self, qualname: str) -> list[tuple[int, str]]:
        """(line, returned-expr) for every non-guard uncharged return."""
        info = self.project.functions.get(qualname)
        if info is None:
            return []
        exits, _, _ = self._walk(info.node.body, False, qualname)
        return exits

    # -- the walk -------------------------------------------------------------

    def _charging_span(self, expr: ast.AST | None, qualname: str) -> bool:
        """Does evaluating ``expr`` unconditionally charge?"""
        if expr is None:
            return False
        start = getattr(expr, "lineno", None)
        end = getattr(expr, "end_lineno", start)
        if start is None:
            return False
        for site in self.facts[qualname].calls:
            if not (start <= site.line <= (end or start)):
                continue
            if site.attr in CHARGE_ATTRS:
                return True
            if site.callee is not None and self.must_charge(site.callee):
                return True
        return False

    def _walk(self, stmts: list[ast.stmt], charged: bool,
              qualname: str) -> tuple[list[tuple[int, str]], bool, bool]:
        """Walk a statement list.

        Returns ``(uncharged_exits, charged_at_fallthrough, terminal)``
        where *terminal* means every path through the list ends in a
        ``return``/``raise`` (there is no fall-through).
        """
        exits: list[tuple[int, str]] = []
        for stmt in stmts:
            if isinstance(stmt, ast.Return):
                if not charged and not self._charging_span(
                        stmt.value, qualname):
                    if stmt.value is not None and not isinstance(
                            stmt.value, ast.Constant):
                        exits.append((stmt.lineno,
                                      ast.unparse(stmt.value)))
                return exits, charged, True
            if isinstance(stmt, ast.Raise):
                return exits, charged, True
            if isinstance(stmt, ast.If):
                if self._charging_span(stmt.test, qualname):
                    charged = True
                body_exits, body_charged, body_term = self._walk(
                    stmt.body, charged, qualname)
                else_exits, else_charged, else_term = self._walk(
                    stmt.orelse, charged, qualname)
                exits.extend(body_exits)
                exits.extend(else_exits)
                if body_term and else_term and stmt.orelse:
                    return exits, charged, True
                live = []
                if not body_term:
                    live.append(body_charged)
                if not else_term:
                    live.append(else_charged)
                charged = bool(live) and all(live)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if self._charging_span(item.context_expr, qualname):
                        charged = True
                body_exits, charged, body_term = self._walk(
                    stmt.body, charged, qualname)
                exits.extend(body_exits)
                if body_term:
                    return exits, charged, True
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                # Loops may run zero times: collect exits from the body
                # but never let its charges count for the fall-through.
                body_exits, _, _ = self._walk(stmt.body, charged,
                                              qualname)
                exits.extend(body_exits)
                else_exits, charged, _ = self._walk(stmt.orelse, charged,
                                                    qualname)
                exits.extend(else_exits)
            elif isinstance(stmt, ast.Try):
                body_exits, body_charged, _ = self._walk(
                    stmt.body, charged, qualname)
                exits.extend(body_exits)
                for handler in stmt.handlers:
                    handler_exits, _, _ = self._walk(
                        handler.body, charged, qualname)
                    exits.extend(handler_exits)
                final_exits, final_charged, _ = self._walk(
                    stmt.finalbody, body_charged, qualname)
                exits.extend(final_exits)
                charged = final_charged if stmt.finalbody else body_charged
            else:
                if self._charging_span(stmt, qualname):
                    charged = True
        return exits, charged, False
