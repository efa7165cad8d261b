"""End-to-end tests for the bench harness and regression gate.

The load-bearing one is the *injection* test: inflating the hypercall
world-switch cost (VMEXIT/VMENTRY steps) by 10% must trip the gate
against a baseline recorded with the calibrated model — the exact
failure mode ``python -m repro.bench check`` exists to catch in CI.
"""

import json

import pytest

from repro.bench import load_artifact, validate_artifact
from repro.bench.cli import main as bench_main
from repro.bench.registry import REGISTRY
from repro.bench.runner import (DEFAULT_BASELINE_DIR, check_benches,
                                run_benches)
from repro.hw import costs
from repro.hw.costs import WorldSwitchCosts
from repro.profiler import parse_collapsed, self_total

TABLE1 = REGISTRY["table1_edge_calls"]
TABLE2 = REGISTRY["table2_exceptions"]
GATE_SET = ("table1_edge_calls", "table2_exceptions", "fig7_marshalling",
            "fig11_memenc", "ablation_swap")


@pytest.fixture(scope="module")
def table1_run(tmp_path_factory):
    """One real Table 1 run: baseline + side artifacts in temp dirs."""
    baseline_dir = tmp_path_factory.mktemp("baselines")
    artifacts_dir = tmp_path_factory.mktemp("artifacts")
    (output,) = run_benches([TABLE1], baseline_dir=baseline_dir,
                            artifacts_dir=artifacts_dir, log=lambda *_: None)
    return baseline_dir, artifacts_dir, output


def _inflated_switch_costs(factor: float) -> dict:
    """The cost model with the hypercall trap/return steps scaled."""
    def scale(steps):
        return [(name, round(cost * factor))
                if name in ("vmexit", "vmentry") else (name, cost)
                for name, cost in steps]
    return {mode: WorldSwitchCosts(eenter=scale(sw.eenter),
                                   eexit=scale(sw.eexit))
            for mode, sw in costs.SWITCH_COSTS.items()}


class TestRunOne:
    def test_artifact_records_calibrated_ecall_cycles(self, table1_run):
        _, _, output = table1_run
        figures = output.artifact["figures"]
        for label, mode in (("HU-Enclave", "hu"), ("GU-Enclave", "gu"),
                            ("P-Enclave", "p"), ("Intel SGX", "sgx")):
            assert figures[label]["ecall"] == costs.ecall_expected(mode)
        assert output.artifact["metrics"]["HU-Enclave.ecall"] == 8440.0

    def test_artifact_carries_telemetry_and_profile(self, table1_run):
        _, _, output = table1_run
        artifact = output.artifact
        validate_artifact(artifact)
        assert artifact["telemetry"]["machines"] >= 4   # one per mode
        assert artifact["metrics"]["telemetry.total_cycles"] > 0
        assert artifact["metrics"]["profile.total_span_cycles"] > 0
        assert artifact["profile"]["combined"]["frames"]

    def test_profile_accounting_is_exact(self, table1_run):
        # The whole frame table rides in the artifact, so the exact
        # profiler's invariant holds on the record itself: self cycles
        # sum to the root-span cycles, per machine and combined.
        _, _, output = table1_run
        profile = output.artifact["profile"]
        total = output.artifact["metrics"]["profile.total_span_cycles"]
        assert len(profile["machines"]) >= 4
        assert self_total(profile["combined"]) == total == \
            profile["combined"]["total_span_cycles"]
        for machine in profile["machines"]:
            assert self_total(machine) == machine["total_span_cycles"] > 0
        assert sum(m["total_span_cycles"] for m in profile["machines"]) \
            == total

    def test_side_artifacts_are_loadable(self, table1_run):
        _, artifacts_dir, output = table1_run
        snapshot = json.loads(
            (artifacts_dir / "table1_edge_calls.telemetry.json").read_text())
        assert snapshot["machines"]
        trace = json.loads((artifacts_dir /
                            "table1_edge_calls.telemetry.trace.json")
                           .read_text())
        assert trace["traceEvents"]
        collapsed = parse_collapsed(
            (artifacts_dir / "table1_edge_calls.collapsed").read_text())
        assert sum(collapsed.values()) == \
            output.artifact["profile"]["combined"]["total_span_cycles"]
        # The artifact is the profile's only copy.
        assert sorted(path.name for path in artifacts_dir.iterdir()) == [
            "table1_edge_calls.collapsed", "table1_edge_calls.telemetry.json",
            "table1_edge_calls.telemetry.trace.json"]


class TestGate:
    def test_rerun_reproduces_the_baseline_exactly(self, table1_run):
        baseline_dir, _, _ = table1_run
        (result,) = check_benches([TABLE1], baseline_dir=baseline_dir,
                                  log=lambda *_: None)
        assert result.ok, [d.metric for d in result.failures]
        # Zero tolerance really was in force: deterministic to the cycle.
        assert result.tolerance == 0.0

    def test_injected_hypercall_cost_regression_is_caught(
            self, table1_run, monkeypatch):
        baseline_dir, _, _ = table1_run
        monkeypatch.setattr(costs, "SWITCH_COSTS",
                            _inflated_switch_costs(1.1))
        (result,) = check_benches([TABLE1], baseline_dir=baseline_dir,
                                  log=lambda *_: None)
        assert not result.ok
        regressed = {d.metric for d in result.failures
                     if d.status == "regressed"}
        # Every mode that traps through the monitor pays the injected
        # cost; the fingerprint note flags the cost model too.
        assert "HU-Enclave.ecall" in regressed
        assert "GU-Enclave.ecall" in regressed
        assert "P-Enclave.ecall" in regressed
        assert any("cost model changed" in note for note in result.notes)

    def test_cli_check_exits_nonzero_on_injection(self, table1_run,
                                                  monkeypatch, capsys):
        baseline_dir, _, _ = table1_run
        monkeypatch.setattr(costs, "SWITCH_COSTS",
                            _inflated_switch_costs(1.1))
        code = bench_main(["check", "table1_edge_calls",
                           "--baseline-dir", str(baseline_dir)])
        assert code == 1
        assert "GATE FAILED" in capsys.readouterr().out

    def test_missing_baseline_fails_the_gate(self, tmp_path):
        (result,) = check_benches([TABLE1], baseline_dir=tmp_path,
                                  log=lambda *_: None)
        assert not result.ok
        assert any("no committed baseline" in note for note in result.notes)


class TestFingerprints:
    def test_artifact_fingerprints_one_machine_per_mode(self, table1_run):
        _, _, output = table1_run
        assert set(output.artifact["fingerprints"]) == \
            {"gu", "hu", "p", "sgx"}
        for digest in output.artifact["fingerprints"].values():
            assert len(digest) == 64            # sha256 hex

    def test_rerun_reproduces_every_fingerprint(self, table1_run):
        baseline_dir, _, _ = table1_run
        (result,) = check_benches([TABLE1], baseline_dir=baseline_dir,
                                  log=lambda *_: None)
        assert result.ok
        checked = {d.metric for d in result.deltas}
        assert {"state_hash.gu", "state_hash.hu", "state_hash.p",
                "state_hash.sgx"} <= checked

    def test_tampered_fingerprint_fails_the_gate(self, table1_run,
                                                 tmp_path):
        baseline_dir, _, _ = table1_run
        path = baseline_dir / "BENCH_table1_edge_calls.json"
        doc = json.loads(path.read_text())
        doc["fingerprints"]["hu"] = "f" * 64
        path.write_text(json.dumps(doc))
        (result,) = check_benches([TABLE1], baseline_dir=baseline_dir,
                                  log=lambda *_: None)
        assert not result.ok
        assert [d.metric for d in result.failures] == ["state_hash.hu"]

    def test_recording_leaves_table1_bit_identical(self, table1_run,
                                                   tmp_path):
        # The flight recorder is a pure observer: a recorded Table 1 run
        # produces the same metrics AND the same state hashes as the
        # bare run, and its journal replays without divergence.
        from repro.bench.runner import run_one
        from repro.flightrec.journal import Journal
        _, _, bare = table1_run
        recorded = run_one(TABLE1, record_dir=tmp_path)
        assert recorded.artifact["metrics"]["HU-Enclave.ecall"] == \
            costs.ecall_expected("hu")
        assert recorded.artifact["metrics"] == bare.artifact["metrics"]
        assert recorded.artifact["profile"] == bare.artifact["profile"]
        assert recorded.artifact["fingerprints"] == \
            bare.artifact["fingerprints"]
        journal = Journal.load(tmp_path / "table1_edge_calls.journal.json")
        assert journal.header["scenario"] == "bench:table1_edge_calls"
        assert journal.events and journal.checkpoints


class TestCommittedBaselines:
    def test_gate_set_baselines_are_committed_and_valid(self):
        for name in GATE_SET:
            path = DEFAULT_BASELINE_DIR / f"BENCH_{name}.json"
            assert path.exists(), f"run `python -m repro.bench run` for {name}"
            artifact = load_artifact(path)
            assert artifact["name"] == name
            assert artifact["tolerance"] == REGISTRY[name].tolerance

    def test_committed_table_baselines_pin_paper_values(self):
        table1 = load_artifact(
            DEFAULT_BASELINE_DIR / "BENCH_table1_edge_calls.json")
        assert table1["metrics"]["HU-Enclave.ecall"] == 8440.0
        assert table1["metrics"]["Intel SGX.ecall"] == 14432.0
        table2 = load_artifact(
            DEFAULT_BASELINE_DIR / "BENCH_table2_exceptions.json")
        assert table2["metrics"]["P-Enclave.ud"] == 258.0
        assert table2["metrics"]["Intel SGX.ud"] == 28561.0


class TestCli:
    def test_run_then_check_round_trip(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        artifacts_dir = tmp_path / "artifacts"
        assert bench_main(["run", "table2_exceptions",
                           "--baseline-dir", str(baseline_dir),
                           "--artifacts", str(artifacts_dir)]) == 0
        baseline = baseline_dir / "BENCH_table2_exceptions.json"
        assert baseline.exists()
        assert (artifacts_dir / "table2_exceptions.collapsed").exists()
        assert bench_main(["check", "table2_exceptions",
                           "--baseline-dir", str(baseline_dir)]) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_diff_flags_a_perturbed_artifact(self, tmp_path, capsys):
        base = DEFAULT_BASELINE_DIR / "BENCH_table2_exceptions.json"
        perturbed = load_artifact(base)
        perturbed["metrics"]["P-Enclave.ud"] += 26.0       # ~10%
        cur = tmp_path / "BENCH_table2_exceptions.json"
        cur.write_text(json.dumps(perturbed))
        assert bench_main(["diff", str(base), str(base)]) == 0
        assert bench_main(["diff", str(base), str(cur)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_diff_ranks_a_one_sided_frame_from_zero(self, tmp_path,
                                                     capsys):
        # The profile block is the full frame table, so a stack present
        # on one side only spent no cycles on the other: it is ranked
        # with 0 there, as any other frame that moved.
        base_path = DEFAULT_BASELINE_DIR / "BENCH_table1_edge_calls.json"
        base = load_artifact(base_path)
        current = json.loads(json.dumps(base))
        frames = current["profile"]["combined"]["frames"]
        gone = frames.pop()
        frames.append({"stack": ["sdk.ecall", "newcomer"], "calls": 3,
                       "cycles": 1_000_000_000,
                       "self_cycles": 1_000_000_000})
        cur_path = tmp_path / "BENCH_table1_edge_calls.json"
        cur_path.write_text(json.dumps(current))
        assert bench_main(["diff", str(base_path), str(cur_path)]) == 0
        out = capsys.readouterr().out
        deltas = out.split("Profile diff: top self-cycle deltas")[1]
        lines = [line for line in deltas.splitlines() if "(self " in line]
        assert lines[0] == ("  +1,000,000,000  sdk.ecall;newcomer  "
                            "(self 0 -> 1,000,000,000, calls 0 -> 3)")
        gone_line = (f"  {-gone['self_cycles']:>+14,}  "
                     f"{';'.join(gone['stack'])}  "
                     f"(self {gone['self_cycles']:,} -> 0, "
                     f"calls {gone['calls']} -> 0)")
        assert gone_line in lines
        assert "top-N" not in out

    def test_unknown_bench_is_a_usage_error(self, capsys):
        assert bench_main(["run", "no_such_bench"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err
