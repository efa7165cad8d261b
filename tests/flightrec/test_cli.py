"""CLI smoke tests: record -> info -> replay -> inspect, in-process.

The exit-code contract is what CI scripts against: replay returns 0 on a
bit-identical re-execution, 1 on divergence, 2 on operational errors.
"""

from __future__ import annotations

import pytest

from repro.flightrec import forensics
from repro.flightrec.cli import main


@pytest.fixture
def journal_path(lifecycle_scenario, tmp_path):
    """A journal recorded through the CLI itself."""
    path = tmp_path / "run.journal.json"
    code = main(["record", lifecycle_scenario, "-o", str(path),
                 "--args", '{"iters": 2}', "--checkpoint-every", "16"])
    assert code == 0
    return path


class TestRecord:
    def test_record_writes_journal(self, lifecycle_scenario, tmp_path,
                                   capsys):
        path = tmp_path / "run.journal.json"
        assert main(["record", lifecycle_scenario, "-o", str(path)]) == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "recorded" in out and "checkpoints" in out

    def test_scenarios_lists_registered_and_bench(self, lifecycle_scenario,
                                                  capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert lifecycle_scenario in out
        assert "bench:table1_edge_calls" in out

    def test_bad_args_json_is_an_error(self, lifecycle_scenario, tmp_path):
        assert main(["record", lifecycle_scenario,
                     "-o", str(tmp_path / "x.json"),
                     "--args", "not json"]) == 2


class TestReplay:
    def test_clean_replay_exits_zero(self, journal_path, capsys):
        assert main(["replay", str(journal_path)]) == 0
        assert "zero divergence" in capsys.readouterr().out

    def test_perturbed_replay_exits_one_and_names_event(self, journal_path,
                                                        capsys):
        code = main(["replay", str(journal_path),
                     "--perturb-category", "sdk-ecall",
                     "--perturb-at", "3"])
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        assert "first divergent event is seq #" in out

    def test_mistyped_perturb_category_exits_two(self, journal_path,
                                                 capsys):
        assert main(["replay", str(journal_path),
                     "--perturb-category", "sdk-ecal"]) == 2
        assert "undeclared charge category" in capsys.readouterr().err

    def test_missing_journal_exits_two(self, tmp_path):
        assert main(["replay", str(tmp_path / "nope.json")]) == 2


class TestInfoAndInspect:
    def test_info_shows_header_and_summary(self, journal_path, capsys):
        assert main(["info", str(journal_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario:" in out and "test:demo-lifecycle" in out
        assert "hash chain verified" in out

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
        assert main(["inspect", exc.value.forensic_bundle]) == 0
        out = capsys.readouterr().out
        assert "forensic bundle" in out and "RuntimeError" in out

    def test_inspect_rejects_non_bundle(self, journal_path):
        assert main(["inspect", str(journal_path)]) == 2
