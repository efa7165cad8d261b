"""The benchmark registry: one spec per paper table/figure/ablation.

Each ``benchmarks/bench_*.py`` module exposes a module-level
``run_experiment()`` and ``check(figures)``, the paper's claims over the
figures as written; a :class:`BenchSpec` names it, classifies it
(``exact`` cost-model calibrations get a zero tolerance band, ``shape``
figures and ``ablation`` extensions a small relative one) and knows how
to turn the raw experiment output into the JSON-ready *figures* dict
recorded in ``BENCH_<name>.json``, the only result record.  A figure
function adds the x-axis a series is plotted over, so every figure can
be redrawn from its artifact alone.

The *gate set* (Table 1, Table 2, Fig 7, Fig 11 and the page-swap
ablation, whose state fingerprints pin the EPC swap path) is what
``python -m repro.bench run|check`` operates on by default and what CI's
``bench-gate`` job regresses every push against.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable

FigureFn = Callable[[object, object], dict]


def _identity(module, raw) -> dict:
    return raw


def _ablation_epc_figures(module, raw) -> dict:
    latencies, unconstrained = raw
    return {"capacities_mb": module.CAPACITIES_MB, "latencies": latencies,
            "hyperenclave_flat": unconstrained}


def _ablation_ycsb_mix_figures(module, raw) -> dict:
    return {"workloads": module.WORKLOADS, **raw}


def _fig8b_figures(module, raw) -> dict:
    return {"records": module.RECORD_COUNTS, **raw}


def _fig8c_figures(module, raw) -> dict:
    return {"page_sizes": module.PAGE_SIZES, **raw}


def _fig8d_figures(module, raw) -> dict:
    service, curves = raw
    max_throughput = {name: 1e6 / s for name, s in service.items()}
    rel = {name: max_throughput[name] / max_throughput["baseline"]
           for name in service}
    return {"service_cycles": service, "relative_max_throughput": rel,
            "throughput": {name: [x for x, _ in curve]
                           for name, curve in curves.items()},
            "latency": {name: [y for _, y in curve]
                        for name, curve in curves.items()}}


def _fig11_figures(module, raw) -> dict:
    from repro.apps.membench import normalized_overhead
    return {
        "buffer_sizes": module.BUFFER_SIZES,
        "normalized": {name: normalized_overhead(points)
                       for name, points in raw.items()},
        "raw_cycles_per_access": {
            name: [p.cycles_per_access for p in points]
            for name, points in raw.items()},
    }


def _smp_gc_figures(module, raw) -> dict:
    return {"cpus": module.CPU_COUNTS, **raw}


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark."""

    name: str                  # BENCH_<name>.json key
    title: str
    kind: str                  # "exact" | "shape" | "ablation"
    gate: bool = False         # in the default run/check set
    # Per-metric relative tolerance band for the regression gate (see
    # repro.bench.compare for the absolute floor near zero).
    tolerance: float = 0.01
    figures: FigureFn = field(default=_identity)

    @property
    def module_name(self) -> str:
        return f"benchmarks.bench_{self.name}"

    def load(self):
        """Import the benchmark module (repo root must be on sys.path)."""
        return importlib.import_module(self.module_name)

    def run(self) -> dict:
        """Run the experiment and shape its output into figure values."""
        module = self.load()
        return self.figures(module, module.run_experiment())

    def check(self, figures: dict) -> None:
        """Assert the paper's claims over an artifact's ``figures``."""
        self.load().check(figures)


_SPECS = [
    BenchSpec("table1_edge_calls",
              "Table 1: latency of SGX primitives", "exact",
              gate=True, tolerance=0.0),
    BenchSpec("table2_exceptions",
              "Table 2: in-enclave #UD/#PF handling", "exact",
              gate=True, tolerance=0.0),
    BenchSpec("fig7_marshalling",
              "Figure 7: marshalling-buffer overhead", "shape",
              gate=True),
    BenchSpec("fig11_memenc",
              "Figure 11: memory-encryption overhead", "shape",
              gate=True, figures=_fig11_figures),
    BenchSpec("fig8a_nbench", "Figure 8a: NBench scores", "shape"),
    BenchSpec("fig8b_sqlite", "Figure 8b: SQLite/YCSB throughput",
              "shape", figures=_fig8b_figures),
    BenchSpec("fig8c_lighttpd", "Figure 8c: Lighttpd throughput",
              "shape", figures=_fig8c_figures),
    BenchSpec("fig8d_redis", "Figure 8d: Redis latency/throughput",
              "shape", figures=_fig8d_figures),
    BenchSpec("tab3_fig10_virtualization",
              "Table 3 + Figure 10: virtualization overhead", "shape"),
    BenchSpec("ablation_switchless", "Ablation: switchless calls",
              "ablation"),
    BenchSpec("ablation_edmm", "Ablation: EDMM vs SGX2", "ablation"),
    BenchSpec("ablation_modes", "Ablation: mode crossover", "ablation"),
    BenchSpec("ablation_epc", "Ablation: EPC capacity", "ablation",
              figures=_ablation_epc_figures),
    BenchSpec("ablation_ycsb_mix", "Ablation: YCSB mixes A-F",
              "ablation", figures=_ablation_ycsb_mix_figures),
    BenchSpec("ablation_swap", "Ablation: page swapping", "ablation",
              gate=True),
    BenchSpec("ablation_smp_gc", "Ablation: SMP GC shootdowns",
              "ablation", figures=_smp_gc_figures),
    BenchSpec("epc_pressure",
              "EPC interference: two tenants contending for a tiny EPC "
              "pool", "ablation"),
]

REGISTRY: dict[str, BenchSpec] = {spec.name: spec for spec in _SPECS}


def gate_specs() -> list[BenchSpec]:
    """The default run/check set: the committed-baseline benchmarks."""
    return [spec for spec in _SPECS if spec.gate]


def resolve(names: list[str] | None, *, all_benches: bool = False
            ) -> list[BenchSpec]:
    """Names -> specs; no names means the gate set (or --all)."""
    if all_benches:
        return list(_SPECS)
    if not names:
        return gate_specs()
    specs = []
    for name in names:
        # Accept both "table1_edge_calls" and "bench_table1_edge_calls".
        key = name.removeprefix("bench_")
        if key not in REGISTRY:
            known = ", ".join(sorted(REGISTRY))
            raise KeyError(f"unknown benchmark {name!r}; known: {known}")
        specs.append(REGISTRY[key])
    return specs
