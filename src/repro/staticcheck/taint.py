"""SC006: trust-boundary taint analysis.

HyperEnclave's security argument rests on the marshalling discipline:
everything crossing from the untrusted world (apps, the simulated OS,
the SDK's app-side surface) into the trusted monitor/hardware layers
must pass through a validation barrier — the edger8r-generated
bridges, ``memaccess.copy_in``/``copy_out`` range checks, or a public
``RustMonitor`` hypercall entry (which sanitizes before acting).

This pass walks the *precise* call graph from every function defined
under a ``taint-sources`` path.  Traversal stops at barrier functions
(files listed in ``taint-barriers``) and at public methods of the
monitor classes — those are the sanctioned crossings.  If the walk
still reaches a trusted sink (raw physical memory, the frame pool,
page tables, enclave page mutation, a private ``RustMonitor`` helper),
untrusted data has a path around the barrier and the finding prints
the witnessing chain.

Only precise call edges are followed: name-based dispatch fan-out
(``handle.read(...)`` matching ``PhysicalMemory.read``) would drown
real escapes in noise.  At the final hop a fuzzy edge is still
reported when the receiver text names the sink object (``phys``,
``pool``, ``page_table``) — that catches direct attribute reaches
without the fan-out explosion.

SC006's file-local arm (a direct ``PhysicalMemory`` primitive call in
any ``taint-sources`` file, barriers included) lives in
:mod:`repro.staticcheck.filelocal`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.staticcheck.callgraph import FunctionFacts
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.findings import StaticFinding
from repro.staticcheck.project import FunctionInfo, Project
from repro.staticcheck.reach import bfs_reachable, chain_to

#: Monitor classes whose public methods are sanctioned crossings.
_BARRIER_CLASSES = frozenset({"RustMonitor", "WorldSwitchEngine"})


@dataclass(frozen=True)
class SinkSpec:
    """One trusted-sink shape: class, method names, receiver hints."""

    class_name: str | None
    methods: frozenset[str]
    hints: tuple[str, ...]
    label: str


_SINK_SPECS = (
    SinkSpec("PhysicalMemory",
             frozenset({"read", "read_into", "write", "read_u64",
                        "write_u64", "zero_frame", "set_owner"}),
             ("phys",), "raw physical memory"),
    SinkSpec("FramePool", frozenset({"alloc", "free"}),
             ("pool", "frame"), "EPC frame pool"),
    SinkSpec("PageTable",
             frozenset({"map", "unmap", "destroy", "set_flags"}),
             ("page_table", "pt", "npt", "ept"), "page tables"),
    SinkSpec("Enclave",
             frozenset({"add_page", "commit_page", "protect_page",
                        "register_marshalling_buffer"}),
             ("enclave",), "enclave page state"),
    SinkSpec(None, frozenset({"swap_in_page", "swap_out_page"}),
             (), "EPC swap engine"),
)

TRUSTED_FRAGMENTS = ("repro/hw/", "repro/monitor/")


def _build_sinks(project: Project) -> dict[str, str]:
    """qualname -> human label for every trusted-sink function."""
    sinks: dict[str, str] = {}
    for qualname, info in project.functions.items():
        if not any(f in info.path for f in TRUSTED_FRAGMENTS):
            continue
        for spec in _SINK_SPECS:
            if spec.class_name is None:
                if info.class_name is None and info.name in spec.methods:
                    sinks[qualname] = spec.label
            elif info.class_name == spec.class_name \
                    and info.name in spec.methods:
                sinks[qualname] = spec.label
        if info.class_name == "RustMonitor" and not info.is_public:
            sinks[qualname] = "private monitor helper"
    return sinks


def _sink_hints(name: str) -> tuple[str, ...]:
    for spec in _SINK_SPECS:
        if name in spec.methods:
            return spec.hints
    return ()


def _is_barrier(info: FunctionInfo, config: StaticcheckConfig) -> bool:
    if any(fragment in info.path for fragment in config.taint_barriers):
        return True
    return info.class_name in _BARRIER_CLASSES and info.is_public


def run(project: Project, facts: dict[str, FunctionFacts],
        config: StaticcheckConfig) -> list[StaticFinding]:
    """Run the taint pass; returns unsorted findings."""
    sinks = _build_sinks(project)
    for extra in config.taint_sinks:
        sinks.setdefault(extra, "configured sink")

    roots = []
    for qualname, info in project.functions.items():
        if config.path_excluded(info.path):
            continue
        if not any(f in info.path for f in config.taint_sources):
            continue
        if _is_barrier(info, config):
            continue
        roots.append(qualname)

    # Precise-edge BFS with barrier cuts; sinks are reported, not
    # traversed.
    def descend(qualname: str) -> bool:
        info = project.functions.get(qualname)
        return qualname not in sinks and info is not None \
            and not _is_barrier(info, config)

    parents = bfs_reachable(roots, facts, descend, precise_only=True)

    findings: list[StaticFinding] = []
    seen: set[tuple[str, int, str]] = set()
    for qualname in parents:
        if not descend(qualname):
            continue
        info = project.functions[qualname]
        for site in facts[qualname].calls:
            if site.callee is None or site.callee not in sinks:
                continue
            if not site.precise:
                hints = _sink_hints(site.attr)
                receiver = site.receiver.lower()
                if not any(h in receiver for h in hints):
                    continue
            key = (info.path, site.line, site.callee)
            if key in seen:
                continue
            seen.add(key)
            chain = chain_to(parents, qualname) + [site.callee]
            findings.append(StaticFinding(
                rule="SC006", path=info.path, line=site.line,
                symbol=qualname, sink=site.callee,
                message=(f"untrusted value flow reaches {sinks[site.callee]}"
                         f" ({site.callee.split(':')[-1]}) without passing"
                         f" a marshalling barrier; route through the "
                         f"edger8r bridge, memaccess, or a public monitor"
                         f" entry point"),
                chain=chain))
    return findings
