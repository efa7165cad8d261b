"""SC001/SC002: the whole-program determinism pass.

Cycle results must be a pure function of the op sequence.  This pass
takes every function defined in the cycle-charged layers (the
``determinism-roots`` path fragments — hw, monitor, osim) as a root,
walks the conservative call graph, and flags any reachable reference
to a nondeterminism source:

* wall clocks (``time.time``/``perf_counter``/``clock_gettime``/...,
  ``datetime.now``) — including renamed imports and local aliases;
* unseeded randomness (``random.*`` module functions, ``random.Random()``
  with no seed, ``os.urandom``, ``uuid.uuid4``, ``secrets``);
* host environment (``os.environ``, ``os.getenv``);
* ``id()`` — address-derived values change run to run.

Traversal is cut at the ``determinism-exclude`` fragments (telemetry,
profiler, flight recorder: host-side observers that never feed the
simulated clock) and at the sanctioned ``sanctioned-clocks`` symbols.
Each finding carries the full call chain from a charged root to the
forbidden source.

SC001's file-local arm (any direct wall-clock or unseeded-``random``
reference, in every file) lives in :mod:`repro.staticcheck.filelocal`.

SC002 flags ``for`` loops over raw ``set`` values whose bodies feed a
cycle charge or a digest: Python set iteration order depends on
insertion history and hashing, so such loops can reorder charges or
digest input between otherwise identical runs.
"""

from __future__ import annotations

import ast

from repro.staticcheck.callgraph import CHARGE_ATTRS, FunctionFacts
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.findings import StaticFinding
from repro.staticcheck.project import FunctionInfo, Project
from repro.staticcheck.reach import (bfs_reachable, chain_to,
                                     charging_functions,
                                     functions_reaching)

#: Canonical dotted wall-clock sources (alias-resolved before matching).
WALL_CLOCKS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: ``random`` module functions that draw from the global (unseeded) RNG.
RANDOM_FUNCS = frozenset({
    "random", "randrange", "randint", "randbytes", "choice", "choices",
    "shuffle", "sample", "uniform", "getrandbits", "seed", "gauss",
    "normalvariate", "triangular",
})

#: Other entropy sources that vary run to run.
ENTROPY_SOURCES = frozenset({
    "os.urandom", "uuid.uuid4", "uuid.uuid1",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
    "random.SystemRandom",
})

#: Digest producers for the SC002 set-iteration hazard.
_DIGEST_ATTRS = frozenset({"state_digest", "hexdigest", "digest"})


def classify(dotted: str, has_args: bool,
             sanctioned: frozenset[str]) -> str | None:
    """Human label for a forbidden external reference, or ``None``."""
    if dotted in sanctioned:
        return None
    if dotted in WALL_CLOCKS:
        return "wall clock"
    if dotted.startswith("os.environ") or dotted in ("os.getenv",
                                                     "os.getenvb"):
        return "host environment"
    if dotted in ENTROPY_SOURCES:
        return "OS entropy"
    if dotted == "builtins.id":
        return "id()-derived value"
    root, _, leaf = dotted.partition(".")
    if root == "random":
        if leaf in RANDOM_FUNCS:
            return "unseeded randomness"
        if leaf == "Random" and not has_args:
            return "unseeded randomness"
    return None


def _is_root(info: FunctionInfo, config: StaticcheckConfig) -> bool:
    if config.path_excluded(info.path):
        return False
    if any(fragment in info.path for fragment in config.determinism_exclude):
        return False
    return any(fragment in info.path for fragment in config.determinism_roots)


def _raw_set_exprs(fn: ast.AST) -> dict[int, set[str]]:
    """Set-valued local names per function, plus direct set expressions.

    Returns ``{lineno_of_for: {reason}}`` for every ``for`` loop whose
    iterable is statically a raw ``set`` (literal, comprehension,
    ``set(...)`` call, or a local assigned from one).
    """
    set_names: set[str] = set()

    def is_raw_set(expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
                and expr.func.id in ("set", "frozenset"):
            return True
        if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return is_raw_set(expr.left) or is_raw_set(expr.right)
        return isinstance(expr, ast.Name) and expr.id in set_names

    loops: dict[int, set[str]] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and is_raw_set(node.value):
            set_names.add(node.targets[0].id)
    for node in ast.walk(fn):
        if isinstance(node, ast.For) and is_raw_set(node.iter):
            loops.setdefault(node.lineno, set()).add(
                ast.unparse(node.iter))
    return loops


def run(project: Project, facts: dict[str, FunctionFacts],
        config: StaticcheckConfig) -> list[StaticFinding]:
    """Run the determinism pass; returns unsorted findings."""
    sanctioned = frozenset(config.sanctioned_clocks)
    sanctioned_quals = {
        clock.rsplit(".", 1)[0] + ":" + clock.rsplit(".", 1)[1]
        for clock in sanctioned}

    roots = [q for q, info in project.functions.items()
             if _is_root(info, config)]

    def descend(qualname: str) -> bool:
        info = project.functions.get(qualname)
        if info is None:
            return True
        if qualname in sanctioned_quals:
            return False
        if config.path_excluded(info.path):
            return False
        return not any(fragment in info.path
                       for fragment in config.determinism_exclude)

    parents = bfs_reachable(roots, facts, descend)

    findings: list[StaticFinding] = []
    seen: set[tuple[str, int, str]] = set()
    for qualname in parents:
        if not descend(qualname):
            continue                  # sources inside excluded observers
        info = project.functions[qualname]
        fn_facts = facts[qualname]
        refs = list(fn_facts.external_refs)
        # Calls carry argument presence, needed for random.Random(seed).
        arg_presence = {(site.external, site.line): site.has_args
                        for site in fn_facts.calls
                        if site.external is not None}
        for dotted, line in refs:
            has_args = arg_presence.get((dotted, line), False)
            label = classify(dotted, has_args, sanctioned)
            if label is None:
                continue
            key = (info.path, qualname, dotted)
            if key in seen:
                continue
            seen.add(key)
            chain = chain_to(parents, qualname) + [dotted]
            findings.append(StaticFinding(
                rule="SC001", path=info.path, line=line,
                symbol=qualname, sink=dotted,
                message=(f"{label} {dotted} is reachable from "
                         f"cycle-charged code ({chain[0]}); simulated "
                         f"results must be a pure function of the op "
                         f"sequence"),
                chain=chain))

    findings.extend(_set_iteration_hazards(project, facts, config, parents))
    return findings


def _set_iteration_hazards(project: Project,
                           facts: dict[str, FunctionFacts],
                           config: StaticcheckConfig,
                           parents: dict[str, str | None]
                           ) -> list[StaticFinding]:
    """SC002: raw-set loops whose bodies charge cycles or feed digests."""
    chargers = charging_functions(facts)
    digesters = functions_reaching(_feeds_digest, facts)

    findings: list[StaticFinding] = []
    for qualname in parents:
        info = project.functions.get(qualname)
        if info is None or not any(
                fragment in info.path
                for fragment in config.determinism_roots):
            continue
        fn_facts = facts[qualname]
        loops = _raw_set_exprs(info.node)
        if not loops:
            continue
        spans = _loop_spans(info.node)
        for line, exprs in loops.items():
            start, end = spans.get(line, (line, line))
            hazards = []
            for site in fn_facts.calls:
                if not (start < site.line <= end):
                    continue
                if site.attr in CHARGE_ATTRS:
                    hazards.append(f"charge at line {site.line}")
                elif site.callee is not None and (
                        site.callee in chargers
                        or site.callee in digesters):
                    hazards.append(f"{site.callee} at line {site.line}")
                elif site.attr in _DIGEST_ATTRS:
                    hazards.append(f"digest at line {site.line}")
            if hazards:
                expr = sorted(exprs)[0]
                findings.append(StaticFinding(
                    rule="SC002", path=info.path, line=line,
                    symbol=qualname, sink=expr,
                    message=(f"iteration over unordered set {expr!r} "
                             f"feeds {hazards[0]}; set order varies "
                             f"between runs — sort the elements or use "
                             f"an ordered container"),
                    chain=[qualname]))
    return findings


def _feeds_digest(qualname: str, fn_facts: FunctionFacts) -> bool:
    """Does this function directly produce a digest?"""
    for site in fn_facts.calls:
        if site.attr in _DIGEST_ATTRS:
            return True
        if site.external is not None and site.external.startswith(
                "hashlib."):
            return True
        if site.callee is not None and \
                ".crypto.hashes:" in site.callee:
            return True
    return False


def _loop_spans(fn: ast.AST) -> dict[int, tuple[int, int]]:
    """(start, end) line spans for every ``for`` loop in ``fn``."""
    spans: dict[int, tuple[int, int]] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.For):
            end = getattr(node, "end_lineno", node.lineno)
            spans[node.lineno] = (node.lineno, end or node.lineno)
    return spans
