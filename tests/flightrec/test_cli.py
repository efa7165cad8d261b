"""CLI smoke tests: record -> replay -> report, in-process.

``python -m repro.bench`` is the only CLI over journals and bundles.
The exit-code contract is what CI scripts against: ``replay`` returns 0
on a bit-identical re-execution, 1 on divergence, 2 on operational
errors; ``report`` renders a journal or a forensic bundle.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.cli import main
from repro.flightrec import forensics
from repro.flightrec.perturb import perturb_cycles
from repro.flightrec.scenario import run_recorded


@pytest.fixture
def journal_path(lifecycle_scenario, tmp_path):
    """A recorded journal of the demo lifecycle, on disk."""
    journal, _ = run_recorded(lifecycle_scenario, {"iters": 2},
                              checkpoint_every=16)
    return journal.write(tmp_path / "run.journal.json")


class TestRecord:
    def test_record_writes_journal(self, tmp_path, capsys):
        journals = tmp_path / "journals"
        assert main(["run", "table1_edge_calls",
                     "--record", str(journals),
                     "--baseline-dir", str(tmp_path / "baselines")]) == 0
        path = journals / "table1_edge_calls.journal.json"
        assert path.exists()
        capsys.readouterr()
        # The journal names the machines as the artifact does.
        artifact = json.loads(
            (tmp_path / "baselines" / "BENCH_table1_edge_calls.json")
            .read_text())
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        for label, state_hash in artifact["fingerprints"].items():
            assert f"{label} " in out and state_hash in out


class TestReplay:
    def test_clean_replay_exits_zero(self, journal_path, capsys):
        assert main(["replay", str(journal_path)]) == 0
        assert "zero divergence" in capsys.readouterr().out

    def test_perturbed_replay_exits_one_and_names_event(self, journal_path,
                                                        capsys):
        with perturb_cycles("sdk-ecall", at=3):
            code = main(["replay", str(journal_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        assert "first divergent event is seq #" in out

    def test_missing_journal_exits_two(self, tmp_path):
        assert main(["replay", str(tmp_path / "nope.json")]) == 2


class TestInfoAndInspect:
    def test_info_shows_header_and_summary(self, journal_path, capsys):
        assert main(["report", str(journal_path)]) == 0
        out = capsys.readouterr().out
        assert "journal test:demo-lifecycle" in out
        assert "hash chain verified" in out
        assert "machine-1" in out

    def test_inspect_renders_bundle(self, lifecycle_scenario, tmp_path,
                                    monkeypatch, capsys):
        from repro.flightrec import scenario as flightrec_scenario
        monkeypatch.setenv(forensics.FORENSICS_DIR_ENV, str(tmp_path))

        def crashing(args):
            from tests.flightrec.conftest import demo_lifecycle
            demo_lifecycle(args)
            raise RuntimeError("boom")

        flightrec_scenario.register("test:cli-crash", crashing)
        try:
            with pytest.raises(RuntimeError) as exc:
                flightrec_scenario.run_recorded("test:cli-crash", {})
        finally:
            flightrec_scenario.unregister("test:cli-crash")
        assert main(["report", exc.value.forensic_bundle]) == 0
        out = capsys.readouterr().out
        assert "forensic bundle" in out and "RuntimeError" in out

    def test_inspect_rejects_non_bundle(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        assert main(["report", str(path)]) == 2
