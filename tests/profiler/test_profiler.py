"""Unit tests for the exact cycle-attribution profiler.

Synthetic span trees with hand-computable cycle charges pin the frame
aggregation (calls, inclusive vs self cycles), the per-enclave
breakdown, the collapsed-stack round-trip, and the diff ranking.
"""

import json

import pytest

from repro.bench.artifact import build_artifact, write_artifact
from repro.bench.cli import main as bench_main
from repro.bench.registry import REGISTRY
from repro.bench.report import profile_section
from repro.hw.cycles import CycleCounter
from repro.profiler import (FrameDelta, collapsed_lines, diff_report,
                            machine_profile, parse_collapsed,
                            profile_document, rank_deltas, self_total,
                            write_collapsed)
from repro.telemetry import Telemetry, UnclosedSpanError


def make_tel(**kwargs) -> Telemetry:
    tel = Telemetry(CycleCounter(), **kwargs)
    tel.enable()
    return tel


def run_workload(tel: Telemetry, scale: int = 1) -> None:
    """Two root spans, one nested pair; every charge is hand-checkable."""
    with tel.span("ecall", enclave=1, cpu=0):
        tel.cycles.charge(100 * scale, "sdk-ecall")
        with tel.span("eenter"):
            tel.cycles.charge(500 * scale, "eenter:hu")
        tel.cycles.charge(40 * scale, "sdk-ecall")
        with tel.span("eexit"):
            tel.cycles.charge(380 * scale, "eexit:hu")
    with tel.span("attest", enclave=2):
        tel.cycles.charge(30 * scale, "crypto")


class TestFrameAggregation:
    def test_frames_keyed_by_exact_stack(self):
        tel = make_tel()
        run_workload(tel)
        profile = machine_profile(tel, "m")
        frames = {tuple(f["stack"]): f for f in profile["frames"]}
        assert set(frames) == {("ecall",), ("ecall", "eenter"),
                               ("ecall", "eexit"), ("attest",)}
        assert frames[("ecall",)]["cycles"] == 1020      # inclusive
        assert frames[("ecall",)]["self_cycles"] == 140  # minus children
        assert frames[("ecall", "eenter")]["self_cycles"] == 500
        assert frames[("ecall", "eexit")]["self_cycles"] == 380
        assert frames[("attest",)]["self_cycles"] == 30

    def test_calls_accumulate_per_stack(self):
        tel = make_tel()
        run_workload(tel)
        run_workload(tel)
        profile = machine_profile(tel, "m")
        frames = {tuple(f["stack"]): f for f in profile["frames"]}
        assert frames[("ecall",)]["calls"] == 2
        assert frames[("ecall", "eenter")]["calls"] == 2
        assert frames[("ecall", "eenter")]["self_cycles"] == 1000

    def test_self_cycles_sum_to_root_span_cycles(self):
        tel = make_tel()
        run_workload(tel)
        profile = machine_profile(tel, "m")
        assert profile["total_span_cycles"] == 1050
        assert self_total(profile) == profile["total_span_cycles"]

    def test_breakdowns_split_self_cycles_by_label(self):
        tel = make_tel()
        run_workload(tel)
        profile = machine_profile(tel, "m")
        # Child spans carry no enclave label -> bucket "-".
        assert profile["by_enclave"] == {"1": 140, "-": 880, "2": 30}
        assert sum(profile["by_enclave"].values()) == 1050

    def test_document_combines_machines(self):
        tel_a, tel_b = make_tel(), make_tel()
        run_workload(tel_a)
        run_workload(tel_b, scale=2)
        doc = profile_document([("a", tel_a), ("b", tel_b)])
        assert doc["combined"]["total_span_cycles"] == 1050 * 3
        combined = {tuple(f["stack"]): f for f in doc["combined"]["frames"]}
        assert combined[("ecall", "eenter")]["self_cycles"] == 1500
        assert combined[("ecall", "eenter")]["calls"] == 2
        assert self_total(doc["combined"]) == 1050 * 3

    def test_summary_ranks_by_self_cycles(self):
        # The report's top-frames table is the one summary of a profile:
        # frames by self cycles, descending, ties by stack.
        tel = make_tel()
        run_workload(tel)
        with tel.span("tie"):
            tel.cycles.charge(30, "crypto")
        (table,) = profile_section({"profile": profile_document([("m", tel)])})
        assert [row[1] for row in table.rows] == [
            "ecall;eenter", "ecall;eexit", "ecall", "attest", "tie"]

    def test_capped_span_ring_gives_the_full_profile(self):
        # The ring keeps only the last 8 span records (for the Chrome
        # trace); the profile still covers all 5 x 4 closed spans.
        capped, uncapped = make_tel(span_capacity=8), make_tel()
        for _ in range(5):
            run_workload(capped)
            run_workload(uncapped)
        assert len(capped.spans) == 8
        profile = profile_document([("m", capped)])
        assert profile == profile_document([("m", uncapped)])
        assert profile["machines"][0]["spans_recorded"] == 20
        assert profile["combined"]["total_span_cycles"] == 5 * 1050

    def test_reset_drops_the_frame_table(self):
        tel = make_tel()
        run_workload(tel)
        tel.reset()
        run_workload(tel, scale=2)
        assert machine_profile(tel, "m")["total_span_cycles"] == 2100

    def test_profiling_reads_without_charging(self):
        tel = make_tel()
        run_workload(tel)
        before = tel.cycles.total
        machine_profile(tel, "m")
        profile_document([("m", tel)])
        assert tel.cycles.total == before


class TestUnclosedSpans:
    def test_strict_profile_raises_with_span_names(self):
        tel = make_tel()
        outer = tel.span("outer")
        outer.__enter__()
        with pytest.raises(UnclosedSpanError, match="outer"):
            machine_profile(tel, "m")
        outer.__exit__(None, None, None)
        machine_profile(tel, "m")   # closed: no longer raises


class TestCollapsed:
    def test_round_trip_preserves_self_cycles(self):
        tel = make_tel()
        run_workload(tel)
        doc = profile_document([("m", tel)])
        parsed = parse_collapsed("\n".join(collapsed_lines(doc)))
        assert parsed[("m", "ecall", "eenter")] == 500
        assert sum(parsed.values()) == 1050

    def test_combined_mode_drops_machine_prefix(self):
        # Collapsed lines are rooted at the machine label; the combined
        # frame table merges machines, so its stacks carry no label.
        tel = make_tel()
        run_workload(tel)
        doc = profile_document([("m", tel)])
        parsed = parse_collapsed("\n".join(collapsed_lines(doc)))
        combined = {tuple(f["stack"]): f["self_cycles"]
                    for f in doc["combined"]["frames"]}
        assert parsed[("m", "ecall", "eexit")] == 380
        assert combined[("ecall", "eexit")] == 380

    def test_lines_are_flamegraph_shaped(self, tmp_path):
        """Every line must be `frame;frame... <int>` — the exact input
        format of flamegraph.pl / speedscope / inferno."""
        tel = make_tel()
        run_workload(tel)
        path = write_collapsed(tmp_path / "out.collapsed",
                               profile_document([("m", tel)]))
        for line in path.read_text().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit() and int(count) > 0
            assert all(frame for frame in stack.split(";"))

    def test_zero_self_frames_are_skipped(self):
        tel = make_tel()
        with tel.span("wrapper"):          # all cycles go to the child
            with tel.span("inner"):
                tel.cycles.charge(10, "sdk-ecall")
        lines = collapsed_lines(profile_document([("m", tel)]))
        assert lines == ["m;wrapper;inner 10"]

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_collapsed("no-count-here")


class TestDiff:
    def _docs(self):
        base_tel, cur_tel = make_tel(), make_tel()
        run_workload(base_tel)
        run_workload(cur_tel, scale=2)
        with cur_tel.span("new_phase"):
            cur_tel.cycles.charge(7, "other")
        return (profile_document([("m", base_tel)]),
                profile_document([("m", cur_tel)]))

    def test_largest_delta_first(self):
        base, cur = self._docs()
        deltas = rank_deltas(base, cur)
        assert deltas[0].stack == ("ecall", "eenter")
        assert deltas[0].delta == 500
        assert all(abs(a.delta) >= abs(b.delta)
                   for a, b in zip(deltas, deltas[1:]))

    def test_frames_missing_on_one_side_count_from_zero(self):
        base, cur = self._docs()
        table = {d.stack: d for d in rank_deltas(base, cur)}
        assert table[("new_phase",)].base_self == 0
        assert table[("new_phase",)].delta == 7
        gone = {d.stack: d for d in rank_deltas(cur, base)}[("new_phase",)]
        assert (gone.base_self, gone.cur_self, gone.delta) == (7, 0, -7)
        assert (gone.base_calls, gone.cur_calls) == (1, 0)
        only_base = FrameDelta(("gone",), base_self=9, cur_self=0,
                               base_calls=1, cur_calls=0)
        assert only_base.delta == -9

    def test_report_names_total_movement(self):
        base, cur = self._docs()
        text = diff_report(base, cur)
        assert "1,050 -> 2,107" in text
        assert "ecall;eenter" in text

    def test_identical_profiles_report_no_movement(self):
        base, _ = self._docs()
        assert "no frame moved a single cycle" in diff_report(base, base)


class TestProfilerCli:
    """Profiles are read through ``repro.bench``: ``report`` prints the
    artifact's top frames and ``diff`` diffs two artifacts' profiles."""

    def _write_artifact(self, tmp_path, name, scale=1):
        tel = make_tel()
        run_workload(tel, scale=scale)
        artifact = build_artifact(
            REGISTRY["table1_edge_calls"], {"x": 1.0}, None,
            profile_document([("m", tel)]))
        return write_artifact(tmp_path / name, artifact)

    def test_report_prints_top_frames(self, tmp_path):
        doc = json.loads(self._write_artifact(tmp_path, "a.json").read_text())
        (table,) = profile_section(doc)
        assert table.title == ("top 4 frames by self cycles (of 1,050 "
                               "span cycles across 1 machine(s)):")
        assert table.rows[:2] == [["500", "ecall;eenter", "1"],
                                  ["380", "ecall;eexit", "1"]]

    def test_report_shows_at_most_ten_frames(self):
        tel = make_tel()
        for i in range(12):
            with tel.span(f"f{i:02}"):
                tel.cycles.charge(100 + i, "other")
        (table,) = profile_section({"profile": profile_document([("m", tel)])})
        assert table.title.startswith("top 10 frames by self cycles (of ")
        assert [row[1] for row in table.rows] == \
            [f"f{i:02}" for i in range(11, 1, -1)]

    def test_collapse_writes_parseable_file(self, tmp_path):
        doc = json.loads(self._write_artifact(tmp_path, "a.json").read_text())
        path = write_collapsed(tmp_path / "p.collapsed", doc["profile"])
        assert sum(parse_collapsed(path.read_text()).values()) == 1050

    def test_diff_exit_codes_track_total_movement(self, tmp_path, capsys):
        base = self._write_artifact(tmp_path, "base.json")
        cur = self._write_artifact(tmp_path, "cur.json", scale=2)
        assert bench_main(["diff", str(base), str(base)]) == 0
        assert "no frame moved a single cycle" in capsys.readouterr().out
        assert bench_main(["diff", str(base), str(cur)]) == 1
        out = capsys.readouterr().out
        assert "profile.total_span_cycles" in out
        assert "total span cycles: 1,050 -> 2,100 (+1,050)" in out
        assert "ecall;eenter  (self 500 -> 1,000, calls 1 -> 1)" in out

    def test_invalid_profile_is_a_usage_error(self, tmp_path, capsys):
        path = self._write_artifact(tmp_path, "bogus.json")
        bogus = json.loads(path.read_text())
        bogus["profile"]["combined"]["frames"][0].pop("self_cycles")
        path.write_text(json.dumps(bogus))
        assert bench_main(["diff", str(path), str(path)]) == 2
        assert "missing self_cycles" in capsys.readouterr().err
