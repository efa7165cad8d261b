"""Cycle-domain timeline sampling: boundaries, episodes, exporters, and
the timeline tables of ``python -m repro.bench report``.

The sampler's boundary semantics are what make the fast-path A/B sweep
exact (one row per crossed boundary, probe values batch-invariant), so
they are pinned here at the unit level; episode detection gets a
hand-checkable synthetic two-tenant series with known victim/aggressor
answers.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.artifact import (ARTIFACT_KIND, ARTIFACT_VERSION,
                                  load_artifact, write_artifact)
from repro.bench.cli import main as bench_main
from repro.bench.report import timeline_section
from repro.hw.cycles import CycleCounter
from repro.platform import TeePlatform
from repro.telemetry import sink as telemetry_sink
from repro.telemetry.schema import SchemaError, validate_timeline
from repro.telemetry.timeline import (TimelineSampler, detect_episodes,
                                      scalar_series, tenant_rollups,
                                      timeline_counter_events,
                                      timeline_document)
from tests.sdk.conftest import SMALL


def _driven_sampler(interval: int = 100):
    """A sampler wired to a bare CycleCounter, plus a mutable probe box."""
    counter = CycleCounter()
    sampler = TimelineSampler(interval, label="unit")
    box = {"free": 10, "resident": {1: 4}}
    sampler.add_probe("epc.free_frames", lambda: box["free"])
    sampler.add_tenant_probe("epc.resident_pages",
                             lambda: dict(box["resident"]))
    sampler.add_cycle_probe("cycles.total", lambda boundary: boundary)
    counter._timeline = sampler
    return counter, sampler, box


class TestSamplerBoundaries:
    def test_no_row_below_first_boundary(self):
        counter, sampler, _ = _driven_sampler()
        counter.charge(99, "work")
        assert sampler.samples == []

    def test_one_row_per_boundary_crossed(self):
        counter, sampler, _ = _driven_sampler()
        counter.charge(100, "work")
        assert [s["cycle"] for s in sampler.samples] == [100]
        counter.charge(1, "work")
        assert len(sampler.samples) == 1        # still inside interval 2

    def test_multi_boundary_charge_emits_identical_rows(self):
        # A batched charge that jumps several boundaries must emit one
        # row per boundary, all carrying the same probe values — that is
        # exactly how the legacy path (crossing them one charge at a
        # time over unchanged op state) samples the same run.
        counter, sampler, _ = _driven_sampler()
        counter.charge(350, "work")
        assert [s["cycle"] for s in sampler.samples] == [100, 200, 300]
        series = [s["series"]["epc.free_frames"] for s in sampler.samples]
        assert series == [10, 10, 10]
        # ... except the clock-domain series, which is the row's own
        # boundary by construction.
        assert [s["series"]["cycles.total"] for s in sampler.samples] == \
            [100, 200, 300]

    def test_probe_changes_show_up_in_later_rows(self):
        counter, sampler, box = _driven_sampler()
        counter.charge(100, "work")
        box["free"] = 3
        box["resident"] = {1: 4, 2: 9}
        counter.charge(100, "work")
        first, second = sampler.samples
        assert first["series"]["epc.free_frames"] == 10
        assert second["series"]["epc.free_frames"] == 3
        assert first["tenants"]["epc.resident_pages"] == {"1": 4}
        assert second["tenants"]["epc.resident_pages"] == {"1": 4, "2": 9}

    def test_reregistering_a_probe_replaces_it(self):
        counter, sampler, _ = _driven_sampler()
        sampler.add_probe("epc.free_frames", lambda: 77)
        counter.charge(100, "work")
        assert sampler.samples[0]["series"]["epc.free_frames"] == 77

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            TimelineSampler(0)

    def test_document_validates(self):
        counter, sampler, _ = _driven_sampler()
        sampler.name_tenant(1, "alice")
        counter.charge(250, "work")
        document = timeline_document([sampler])
        validate_timeline(document)
        assert document["timelines"][0]["tenants"] == {"1": "alice"}


def _synthetic_timeline() -> dict:
    """Ten samples at interval 100 with two hand-computed swap storms.

    Tenant "1" (alice) loses pages; "2" (bob) takes frames.  Cumulative
    swap-out for alice: storm one swaps 30 pages over intervals ending
    at cycles 400-600 (rate 10/interval, driven by cross steals 1->2),
    storm two swaps 8 pages in the interval ending at cycle 900 (no
    steal records: attribution falls back to swap delta + resident
    growth).
    """
    swap_out_1 = [0, 0, 0, 10, 20, 30, 30, 30, 38, 38]
    steals_1_2 = [0, 0, 0, 10, 20, 30, 30, 30, 30, 30]
    resident_1 = [100, 100, 100, 90, 80, 70, 70, 70, 62, 62]
    resident_2 = [40, 40, 40, 50, 60, 70, 70, 70, 78, 78]
    samples = []
    for i in range(10):
        samples.append({
            "cycle": (i + 1) * 100,
            "series": {"epc.free_frames": 0},
            "tenants": {
                "swap.pages_out": {"1": swap_out_1[i], "2": 0},
                "epc.resident_pages": {"1": resident_1[i],
                                       "2": resident_2[i]},
                "epc.stolen_frames": {"1->2": steals_1_2[i]},
            },
        })
    return {"label": "synthetic", "interval": 100,
            "tenants": {"1": "alice", "2": "bob"}, "samples": samples}


def _artifact(timeline: dict | None = None) -> dict:
    """A minimal bench artifact carrying a synthetic timeline block."""
    return {"version": ARTIFACT_VERSION, "kind": ARTIFACT_KIND,
            "name": "synthetic", "title": "two storms",
            "bench_kind": "ablation", "tolerance": 0.0,
            "figures": {"x": 1.0}, "metrics": {"x": 1.0},
            "fingerprints": {},
            "timeline": {"version": 1, "kind": "hyperenclave-timeline",
                         "timelines": [timeline or _synthetic_timeline()]},
            "requests": None}


class TestEpisodeDetection:
    def test_finds_both_storms_with_exact_spans(self):
        episodes = detect_episodes(_synthetic_timeline(), threshold=5.0)
        assert len(episodes) == 2
        first, second = episodes
        assert (first["start_cycle"], first["end_cycle"]) == (300, 600)
        assert first["intervals"] == 3
        assert first["pages"] == 30
        assert first["depth"] == 10
        assert (second["start_cycle"], second["end_cycle"]) == (800, 900)
        assert second["pages"] == 8

    def test_cross_steals_name_victim_and_aggressor(self):
        first = detect_episodes(_synthetic_timeline(), threshold=5.0)[0]
        assert first["victim"] == "alice"
        assert first["aggressor"] == "bob"

    def test_fallback_attribution_without_steal_records(self):
        # Storm two has no steal-record delta: the victim is whoever
        # swapped out, the aggressor whoever grew resident.
        second = detect_episodes(_synthetic_timeline(), threshold=5.0)[1]
        assert second["victim"] == "alice"
        assert second["aggressor"] == "bob"

    def test_min_intervals_filters_short_episodes(self):
        episodes = detect_episodes(_synthetic_timeline(), threshold=5.0,
                                   min_intervals=2)
        assert len(episodes) == 1
        assert episodes[0]["intervals"] == 3

    def test_high_threshold_finds_nothing(self):
        assert detect_episodes(_synthetic_timeline(), threshold=11.0) == []

    def test_self_steals_attribute_the_thrashing_tenant(self):
        timeline = _synthetic_timeline()
        for i, sample in enumerate(timeline["samples"]):
            sample["tenants"]["epc.stolen_frames"] = \
                {"1->1": [0, 0, 0, 10, 20, 30, 30, 30, 30, 30][i]}
        first = detect_episodes(timeline, threshold=5.0)[0]
        assert first["victim"] == "alice"
        assert first["aggressor"] == "alice"


class TestSeriesAndRollups:
    def test_scalar_and_tenant_series_access(self):
        timeline = _synthetic_timeline()
        free = scalar_series(timeline, "epc.free_frames")
        assert free[0] == (100, 0) and len(free) == 10
        # The report's series table holds the scalar series; the tenant
        # series reach it through the per-tenant rollups.
        series, rollups, _ = timeline_section(_artifact(timeline))
        assert series.title == ("timeline [synthetic]: 10 samples every "
                                "100 cycles, cycle 100..1,000; pressure "
                                "episodes at >= 4 pages swapped out per "
                                "interval:")
        assert series.rows == [["epc.free_frames", "0", "0", "0"]]
        assert [row[:7] for row in rollups.rows] == [
            ["alice", "1", "0", "100", "80.4", "38", "0"],
            ["bob", "2", "0", "78", "59.6", "0", "0"]]

    def test_rollups_aggregate_per_tenant(self):
        rollups = tenant_rollups(_synthetic_timeline())
        alice, bob = rollups["1"], rollups["2"]
        assert alice["tenant"] == "alice"
        assert alice["epc_pages_peak"] == 100
        assert alice["pages_swapped_out"] == 38
        assert alice["stolen_from"] == {"bob": 30}
        assert bob["stolen_by"] == {"alice": 30}
        assert bob["epc_pages_peak"] == 78


class TestExporters:
    def test_counter_events_are_chrome_counter_tracks(self):
        events = timeline_counter_events(_synthetic_timeline())
        assert events and all(e["ph"] == "C" for e in events)
        assert events[0]["ts"] == 100
        named = {e["name"] for e in events}
        assert {"epc.free_frames", "swap.pages_out",
                "epc.resident_pages"} <= named
        swap = [e for e in events if e["name"] == "swap.pages_out"]
        assert swap[0]["args"] == {"alice": 0, "bob": 0}

    def test_text_report_names_tenants_and_episodes(self):
        assert timeline_document([None]) is None
        _, rollups, episodes = timeline_section(_artifact())
        assert [row[-2:] for row in rollups.rows] == [
            ["bob: 30", "-"], ["-", "alice: 30"]]
        assert episodes.rows == [
            ["synthetic", "300", "600", "30", "10", "alice", "bob"],
            ["synthetic", "800", "900", "8", "8", "alice", "bob"]]

    def test_write_load_roundtrip_and_artifact_block(self, tmp_path):
        # The artifact is the timeline's only file; its block is
        # schema-checked on write and again on load.
        artifact = _artifact()
        path = write_artifact(tmp_path / "BENCH_synthetic.json", artifact)
        assert load_artifact(path) == artifact
        bad = copy.deepcopy(artifact)
        bad["timeline"]["timelines"][0]["samples"][1]["cycle"] = 50
        with pytest.raises(SchemaError, match="timelines"):
            write_artifact(tmp_path / "bad.json", bad)
        path.write_text(json.dumps(bad))
        with pytest.raises(SchemaError, match="timelines"):
            load_artifact(path)

    def test_schema_rejects_malformed_timelines(self):
        with pytest.raises(SchemaError):
            validate_timeline({"version": 1, "kind": "hyperenclave-timeline",
                               "timelines": []})
        bad = {"version": 1, "kind": "hyperenclave-timeline",
               "timelines": [{"label": "x", "interval": 0, "tenants": {},
                              "samples": []}]}
        with pytest.raises(SchemaError):
            validate_timeline(bad)
        decreasing = _synthetic_timeline()
        decreasing["samples"][1]["cycle"] = 50
        with pytest.raises(SchemaError):
            validate_timeline({"version": 1,
                               "kind": "hyperenclave-timeline",
                               "timelines": [decreasing]})


class TestCli:
    """Timelines are read through ``python -m repro.bench report``."""

    def test_report_and_episodes_exit_codes(self, tmp_path, capsys):
        path = write_artifact(tmp_path / "BENCH_synthetic.json", _artifact())
        assert bench_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-tenant rollups [synthetic] (EPC in pages):" in out
        assert "alice -> bob" in out
        bad = _artifact()
        bad["timeline"]["timelines"] = []
        path.write_text(json.dumps(bad))
        assert bench_main(["report", str(path)]) == 2
        assert "$.timelines" in capsys.readouterr().err

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert bench_main(["report", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestSinkIntegration:
    def test_capture_with_interval_attaches_and_detaches(self):
        with telemetry_sink.capture(timeline_interval=50_000) as sink:
            platform = TeePlatform.hyperenclave(SMALL)
            sampler = platform.machine.telemetry.timeline
            assert sampler is not None
            assert sampler.label == "machine-1"
            assert platform.machine.cycles._timeline is sampler
            assert sink.timelines() == [sampler]
            sink.unregister(platform.machine.telemetry)
        assert platform.machine.telemetry.timeline is None
        assert platform.machine.cycles._timeline is None

    def test_capture_without_interval_attaches_nothing(self):
        with telemetry_sink.capture() as sink:
            platform = TeePlatform.hyperenclave(SMALL)
            assert platform.machine.telemetry.timeline is None
            assert sink.timeline_document() is None

    def test_relabel_renames_the_sampler(self):
        with telemetry_sink.capture(timeline_interval=50_000) as sink:
            platform = TeePlatform.hyperenclave(SMALL)
            sink.register("gu", platform.machine.telemetry)
            assert platform.machine.telemetry.timeline.label == "gu"
