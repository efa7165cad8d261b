"""The paper claims each benchmark module holds in ``check(figures)``.

``repro.bench run`` and ``check`` run a benchmark's claims over its
figures as the artifact records them, so every committed baseline must
pass them as written, and a run whose figures break one exits 1 and
names the benchmark.
"""

import json

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.registry import REGISTRY
from repro.bench.runner import DEFAULT_BASELINE_DIR, claim_failure

TABLE1_HU_ECALL = ('assert r["ecall"] == costs.ecall_expected(mode.value), '
                   'label [HU-Enclave]')


@pytest.mark.parametrize(
    "path", sorted(DEFAULT_BASELINE_DIR.glob("BENCH_*.json")),
    ids=lambda path: path.stem)
def test_committed_baseline_passes_its_claims(path):
    artifact = json.loads(path.read_text())
    spec = REGISTRY[artifact["name"]]
    assert claim_failure(spec, artifact["figures"]) is None


def _table1_hu_ecall_plus_one(figures):
    figures["HU-Enclave"]["ecall"] += 1


def _fig7_in_out_at_5_percent(figures):
    figures["ecall"]["in&out"][-1] = 0.05


@pytest.mark.parametrize("name, mutate, failure", [
    ("table1_edge_calls", _table1_hu_ecall_plus_one, TABLE1_HU_ECALL),
    # No message: the assert's source alone names the claim.
    ("fig7_marshalling", _fig7_in_out_at_5_percent,
     'assert 0.10 < ecall["in&out"][-1] < 0.28'),
])
def test_broken_figure_fails_its_claim(name, mutate, failure):
    artifact = json.loads(
        (DEFAULT_BASELINE_DIR / f"BENCH_{name}.json").read_text())
    mutate(artifact["figures"])
    assert claim_failure(REGISTRY[name], artifact["figures"]) == failure


def test_failure_renders_the_whole_multi_line_assert():
    figures = {"records": [10_000, 40_000, 80_000, 120_000, 160_000],
               "GU-Enclave": [0.95] * 5, "HU-Enclave": [0.95] * 5,
               "SGX": [0.97] * 5}
    assert claim_failure(REGISTRY["fig8b_sqlite"], figures) == (
        'assert results["SGX"][0] < min(results["GU-Enclave"][0], '
        'results["HU-Enclave"][0])')


def test_failed_claim_fails_run_and_check(tmp_path, monkeypatch, capsys):
    """The run still writes its artifact; ``check`` against it sees equal
    metrics, so the claim alone fails the gate."""
    table1 = REGISTRY["table1_edge_calls"].load()
    run_experiment = table1.run_experiment

    def one_cycle_off():
        figures = run_experiment()
        figures["HU-Enclave"]["ecall"] += 1
        return figures

    monkeypatch.setattr(table1, "run_experiment", one_cycle_off)
    argv = ["table1_edge_calls", "--baseline-dir", str(tmp_path)]
    assert bench_main(["run", *argv]) == 1
    out = capsys.readouterr().out
    assert f"paper claim FAILED: {TABLE1_HU_ECALL}" in out
    assert "PAPER CLAIMS FAILED: table1_edge_calls" in out
    assert (tmp_path / "BENCH_table1_edge_calls.json").exists()

    assert bench_main(["check", *argv]) == 1
    out = capsys.readouterr().out.splitlines()
    (verdict,) = [line for line in out if line.startswith("[")]
    assert verdict.startswith("[CLAIM FAILED] table1_edge_calls: ")
    assert verdict.endswith(" checked, 0 outside the 0.0% band")
    assert f"  note: paper claim failed: {TABLE1_HU_ECALL}" in out
    assert "GATE FAILED: table1_edge_calls" in out
