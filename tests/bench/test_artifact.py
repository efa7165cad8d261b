"""Unit tests for the bench artifact format, the gate comparison, and
the registry — everything that runs without executing a benchmark."""

import dataclasses

import pytest

from repro.bench import (ARTIFACT_KIND, ARTIFACT_VERSION, REGISTRY,
                         BenchSpec, build_artifact, compare_artifacts,
                         compare_report, costs_fingerprint, flatten_metrics,
                         gate_specs, load_artifact, resolve,
                         validate_artifact, write_artifact)
from repro.bench.compare import FingerprintDelta, MetricDelta
from repro.hw.cycles import CycleCounter
from repro.profiler import profile_document
from repro.telemetry import Telemetry
from repro.telemetry.export import snapshot_document

FAKE = BenchSpec("fake", "a fake benchmark", "shape", tolerance=0.05)


def fake_artifact(**figure_overrides) -> dict:
    figures = {"latency": {"hu": 100.0, "gu": 200.0}, "ratio": [0.5, 1.0]}
    figures.update(figure_overrides)
    return build_artifact(FAKE, figures, None, None)


class TestFlattenMetrics:
    def test_numeric_leaves_by_dot_path(self):
        flat = flatten_metrics({"a": {"b": 1, "c": [1.5, 2]}})
        assert flat == {"a.b": 1.0, "a.c.0": 1.5, "a.c.1": 2.0}

    def test_non_numeric_leaves_are_skipped(self):
        flat = flatten_metrics({"s": "text", "flag": True, "none": None,
                                "n": 3})
        assert flat == {"n": 3.0}

    def test_bare_number_gets_a_name(self):
        assert flatten_metrics(7) == {"value": 7.0}


class TestArtifact:
    def test_build_produces_valid_artifact(self):
        artifact = fake_artifact()
        validate_artifact(artifact)
        assert artifact["version"] == ARTIFACT_VERSION
        assert artifact["kind"] == ARTIFACT_KIND
        assert artifact["name"] == "fake"
        assert artifact["metrics"]["latency.hu"] == 100.0
        assert artifact["telemetry"] is None and artifact["profile"] is None
        assert artifact["provenance"]["costs_fingerprint"]

    def test_write_load_round_trip(self, tmp_path):
        path = write_artifact(tmp_path / "BENCH_fake.json", fake_artifact())
        assert load_artifact(path) == fake_artifact()

    def test_validate_rejects_non_numeric_metrics(self):
        artifact = fake_artifact()
        artifact["metrics"]["bad"] = "oops"
        with pytest.raises(ValueError, match="non-numeric"):
            validate_artifact(artifact)

    def test_validate_rejects_other_versions(self):
        artifact = fake_artifact()
        artifact["version"] = 1
        with pytest.raises(ValueError, match="unsupported version"):
            validate_artifact(artifact)

    def test_validate_rejects_empty_metrics(self):
        artifact = fake_artifact()
        artifact["metrics"] = {}
        with pytest.raises(ValueError, match="non-empty metrics"):
            validate_artifact(artifact)

    def test_dataclass_figures_are_jsonable(self):
        @dataclasses.dataclass
        class Point:
            cycles: int

        artifact = build_artifact(FAKE, {"pts": [Point(3)]}, None, None)
        assert artifact["figures"]["pts"] == [{"cycles": 3}]
        assert artifact["metrics"]["pts.0.cycles"] == 3.0

    def test_costs_fingerprint_tracks_the_cost_model(self, monkeypatch):
        from repro.hw import costs
        before = costs_fingerprint()
        assert before == costs_fingerprint()          # stable
        monkeypatch.setattr(costs, "VMEXIT_CYCLES", costs.VMEXIT_CYCLES + 1)
        assert costs_fingerprint() != before          # any constant counts


def sim_telemetry() -> dict:
    """A deterministic snapshot: two enclaves, sdk + world spans."""
    tel = Telemetry(CycleCounter())
    tel.enable()
    for enclave, cost in ((1, 8000), (2, 9000)):
        for _ in range(20):
            with tel.span("sdk.ecall", enclave=enclave):
                tel.cycles.charge(cost, "sdk-ecall")
                with tel.span("world.eenter", enclave=enclave):
                    tel.cycles.charge(1200, "eenter:hu")
    return snapshot_document([("m", tel)])


def profiled_artifact() -> dict:
    tel = Telemetry(CycleCounter())
    tel.enable()
    with tel.span("sdk.ecall"):
        tel.cycles.charge(100, "sdk-ecall")
        with tel.span("world.eenter"):
            tel.cycles.charge(500, "eenter:hu")
    return build_artifact(FAKE, {"score": 1.0}, None,
                          profile_document([("m", tel)]))


def _drop_machines(profile):
    del profile["machines"]


def _drop_combined_frames(profile):
    del profile["combined"]["frames"]


def _empty_stack(profile):
    profile["combined"]["frames"][0]["stack"] = []


def _string_stack(profile):
    profile["machines"][0]["frames"][0]["stack"] = "sdk.ecall"


def _dropper(field):
    def drop(profile):
        del profile["machines"][0]["frames"][-1][field]
    return drop


class TestProfileBlock:
    """The artifact's ``profile`` block is the only copy of the profile,
    so ``validate_artifact`` holds it to its shape on every write and
    load."""

    def test_full_frame_table_is_stored(self):
        artifact = profiled_artifact()
        validate_artifact(artifact)
        profile = artifact["profile"]
        assert set(profile) == {"machines", "combined"}
        (machine,) = profile["machines"]
        assert set(machine) == {"label", "total_span_cycles",
                                "spans_recorded", "frames", "by_enclave"}
        assert [f["stack"] for f in profile["combined"]["frames"]] == \
            [["sdk.ecall"], ["sdk.ecall", "world.eenter"]]
        assert artifact["metrics"]["profile.total_span_cycles"] == 600.0

    @pytest.mark.parametrize("breakage, message", [
        (_drop_machines, "missing machines list"),
        (_drop_combined_frames, "missing combined.frames"),
        (_empty_stack, "bad stack"),
        (_string_stack, "bad stack"),
        (_dropper("calls"), "missing calls"),
        (_dropper("cycles"), "missing cycles"),
        (_dropper("self_cycles"), "missing self_cycles"),
    ])
    def test_validate_rejects_a_bad_profile(self, breakage, message):
        artifact = profiled_artifact()
        breakage(artifact["profile"])
        with pytest.raises(ValueError, match=message):
            validate_artifact(artifact)


class TestLatencyBlock:
    def test_per_enclave_percentiles(self):
        art = build_artifact(FAKE, {"score": 1.0}, sim_telemetry(), None)
        table = art["latency"]["m"]
        assert set(table) == {"1", "2"}
        row = table["1"]["sdk.ecall"]
        assert row["count"] == 20
        # Every observation for enclave 1 is 8000 + 1200 = 9200 cycles
        # (inclusive), a single-bucket histogram: clamping makes all
        # three percentiles exact.
        assert row["p50"] == row["p95"] == row["p99"] == 9200
        assert table["2"]["sdk.ecall"]["p99"] == 10200
        assert table["1"]["world.eenter"]["p50"] == 1200
        assert art["metrics"]["latency.m.1.sdk.ecall.p99"] == 9200

    def test_latency_metrics_are_deterministic(self):
        a, b = (build_artifact(FAKE, {"score": 1.0}, sim_telemetry(), None)
                for _ in range(2))
        lat_a = {k: v for k, v in a["metrics"].items()
                 if k.startswith("latency.")}
        lat_b = {k: v for k, v in b["metrics"].items()
                 if k.startswith("latency.")}
        assert lat_a and lat_a == lat_b


class TestCompare:
    def test_identical_artifacts_pass(self):
        result = compare_artifacts(fake_artifact(), fake_artifact())
        assert result.ok
        assert not result.notes
        assert "gate passed" in compare_report([result])

    def test_drift_outside_band_fails(self):
        base = fake_artifact()
        cur = fake_artifact(latency={"hu": 107.0, "gu": 200.0})  # +7% > 5%
        result = compare_artifacts(base, cur)
        assert not result.ok
        (failure,) = result.failures
        assert failure.metric == "latency.hu"
        assert failure.status == "regressed"
        assert failure.rel_change == pytest.approx(0.07)
        assert "GATE FAILED" in compare_report([result])

    def test_drift_inside_band_passes(self):
        cur = fake_artifact(latency={"hu": 104.0, "gu": 200.0})  # +4% < 5%
        assert compare_artifacts(fake_artifact(), cur).ok

    def test_zero_tolerance_trips_on_one_cycle(self):
        base, cur = fake_artifact(), fake_artifact(ratio=[0.5, 1.0 + 1e-6])
        assert compare_artifacts(base, cur, tolerance=0.0).ok is False
        assert compare_artifacts(base, cur).ok                # 5% band

    def test_missing_and_new_metrics_both_fail(self):
        base = fake_artifact()
        cur = fake_artifact()
        del cur["metrics"]["ratio.0"]
        cur["metrics"]["brand.new"] = 1.0
        result = compare_artifacts(base, cur)
        statuses = {d.metric: d.status for d in result.failures}
        assert statuses == {"ratio.0": "missing", "brand.new": "new"}

    def test_cost_model_change_is_noted(self):
        base = fake_artifact()
        cur = fake_artifact()
        cur["provenance"]["costs_fingerprint"] = "deadbeefdeadbeef"
        result = compare_artifacts(base, cur)
        assert result.ok                      # informational, not gating
        assert any("cost model changed" in note for note in result.notes)

    def test_near_zero_baseline_uses_absolute_floor(self):
        delta = MetricDelta("m", baseline=0.0, current=5e-10, tolerance=0.01)
        assert delta.status == "ok"
        delta = MetricDelta("m", baseline=0.0, current=1e-6, tolerance=0.01)
        assert delta.status == "regressed"


class TestFingerprintCompare:
    def test_exact_equality_no_band(self):
        assert FingerprintDelta("state_hash.gu", "a" * 64, "a" * 64)\
            .status == "ok"
        assert FingerprintDelta("state_hash.gu", "a" * 64, "b" * 64)\
            .status == "regressed"
        assert FingerprintDelta("state_hash.gu", None, "a" * 64)\
            .status == "new"
        assert FingerprintDelta("state_hash.gu", "a" * 64, None)\
            .status == "missing"

    def test_changed_fingerprint_fails_the_gate(self):
        base = fake_artifact()
        base["fingerprints"] = {"gu": "a" * 64}
        cur = fake_artifact()
        cur["fingerprints"] = {"gu": "b" * 64}
        result = compare_artifacts(base, cur)
        (failure,) = result.failures
        assert failure.metric == "state_hash.gu"
        assert failure.status == "regressed"
        assert failure.rel_change is None      # no band to be inside of
        assert "state_hash.gu" in compare_report([result])

    def test_baseline_without_fingerprints_skips_the_check(self):
        # Pre-fingerprint baselines still gate on metrics; regenerating
        # them with `python -m repro.bench run` opts into the check.
        base = fake_artifact()
        base["fingerprints"] = {}
        cur = fake_artifact()
        cur["fingerprints"] = {"gu": "a" * 64}
        result = compare_artifacts(base, cur)
        assert result.ok
        assert not any(d.metric.startswith("state_hash.")
                       for d in result.deltas)

    def test_vanished_machine_fails_the_gate(self):
        base = fake_artifact()
        base["fingerprints"] = {"gu": "a" * 64, "hu": "b" * 64}
        cur = fake_artifact()
        cur["fingerprints"] = {"gu": "a" * 64}
        result = compare_artifacts(base, cur)
        (failure,) = result.failures
        assert failure.metric == "state_hash.hu"
        assert failure.status == "missing"

    def test_non_string_fingerprint_rejected_by_validation(self):
        artifact = fake_artifact()
        artifact["fingerprints"] = {"gu": 42}
        with pytest.raises(ValueError, match="non-string fingerprint"):
            validate_artifact(artifact)


class TestRegistry:
    def test_gate_set_is_the_acceptance_list(self):
        assert [spec.name for spec in gate_specs()] == \
            ["table1_edge_calls", "table2_exceptions", "fig7_marshalling",
             "fig11_memenc", "ablation_swap"]

    def test_exact_benches_have_zero_tolerance(self):
        for name in ("table1_edge_calls", "table2_exceptions"):
            assert REGISTRY[name].kind == "exact"
            assert REGISTRY[name].tolerance == 0.0

    def test_every_spec_maps_to_a_bench_module(self):
        import importlib
        import importlib.util
        for spec in REGISTRY.values():
            assert importlib.util.find_spec(spec.module_name) is not None

    def test_resolve_accepts_bench_prefix_and_defaults_to_gate(self):
        assert resolve([]) == gate_specs()
        (spec,) = resolve(["bench_fig7_marshalling"])
        assert spec.name == "fig7_marshalling"
        assert len(resolve([], all_benches=True)) == len(REGISTRY)

    def test_resolve_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            resolve(["no_such_bench"])
