"""Record/replay over the real platform: the tentpole guarantees.

* recording perturbs nothing — cycle totals and state hashes match a
  bare run exactly;
* a clean replay is bit-identical, checkpoint chain and all;
* an injected +1-cycle perturbation is localized to the *exact* first
  divergent event, not just "somewhere after checkpoint k".
"""

from __future__ import annotations

import pytest

from repro.flightrec.journal import Journal
from repro.flightrec.perturb import perturb_cycles
from repro.flightrec.replay import replay_journal
from repro.flightrec.scenario import ScenarioError, run_recorded
from repro.telemetry import sink as telemetry_sink
from tests.flightrec.conftest import demo_lifecycle


@pytest.fixture
def recorded(lifecycle_scenario, tmp_path):
    """One recorded demo-lifecycle run, round-tripped through disk."""
    journal, figures = run_recorded(lifecycle_scenario, {"iters": 3},
                                    checkpoint_every=16)
    path = journal.write(tmp_path / "run.journal.json")
    return Journal.load(path), figures


class TestRecording:
    def test_journal_captures_events_and_checkpoints(self, recorded):
        journal, figures = recorded
        assert figures["sum"] == 3 * 42
        assert len(journal.events) > 50
        assert len(journal.checkpoints) >= 2
        kinds = {e.kind for e in journal.events}
        assert {"eenter", "eexit", "hypercall"} <= kinds

    def test_events_carry_causal_ids(self, recorded):
        journal, _ = recorded
        causes = {e.cause for e in journal.events}
        assert any(c.startswith("create:demo#") for c in causes)
        assert any("ecall:add_numbers#" in c for c in causes)
        assert any("ocall:ocall_sink#" in c for c in causes)

    def test_event_seq_is_gapless(self, recorded):
        # The journal taps the ring, so wrap-around loses nothing.
        journal, _ = recorded
        seqs = [e.seq for e in journal.events if e.machine == 0]
        assert seqs == list(range(len(seqs)))

    def test_header_records_run_identity(self, recorded):
        journal, _ = recorded
        header = journal.header
        assert header["scenario"] == "test:demo-lifecycle"
        assert header["args"] == {"iters": 3}
        assert header["machines"], "machine configs must be in the header"
        assert header["provenance"]["costs_fingerprint"]

    def test_recording_does_not_perturb_cycles(self, lifecycle_scenario):
        bare = demo_lifecycle({"iters": 3})
        _, recorded_figures = run_recorded(lifecycle_scenario, {"iters": 3},
                                           checkpoint_every=8)
        assert recorded_figures["cycles"] == bare["cycles"]

    def test_two_recordings_are_bit_identical(self, lifecycle_scenario):
        a, _ = run_recorded(lifecycle_scenario, {"iters": 3},
                            checkpoint_every=16)
        b, _ = run_recorded(lifecycle_scenario, {"iters": 3},
                            checkpoint_every=16)
        assert [e.as_list() for e in a.events] == \
            [e.as_list() for e in b.events]
        assert [c.chain for c in a.checkpoints] == \
            [c.chain for c in b.checkpoints]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            run_recorded("test:no-such-scenario", {})

    def test_recorder_deactivated_after_run(self, recorded):
        assert telemetry_sink.current() is None


class TestReplay:
    def test_clean_replay_has_zero_divergence(self, recorded):
        journal, _ = recorded
        result = replay_journal(journal)
        assert result.ok, result.render()
        assert result.divergence is None

    def test_perturbation_localized_to_exact_event(self, recorded):
        journal, _ = recorded
        perturb = perturb_cycles("sdk-ecall", extra=1.0, at=5)
        result = replay_journal(journal, perturb=perturb)
        assert perturb.fired
        assert not result.ok
        div = result.divergence
        assert div.kind == "event"
        # The 5th sdk-ecall charge lands inside an ecall's world switch:
        # the first event whose cycle stamp moved names it exactly.
        assert div.baseline_event.seq == div.replay_event.seq
        assert div.replay_event.cycle == div.baseline_event.cycle + 1
        assert "ecall:" in div.baseline_event.cause

    def test_divergence_render_shows_both_windows(self, recorded):
        journal, _ = recorded
        result = replay_journal(
            journal, perturb=perturb_cycles("sdk-ecall", extra=1.0, at=5))
        text = result.render()
        assert "DIVERGENCE" in text
        assert "baseline window:" in text and "replay window:" in text
        assert text.count("=>") == 2              # one marker per side

    def test_unfired_perturbation_still_replays_clean(self, recorded):
        journal, _ = recorded
        perturb = perturb_cycles("sdk-ecall", extra=1.0, at=10**9)
        result = replay_journal(journal, perturb=perturb)
        assert result.ok
        assert not perturb.fired

    def test_undeclared_perturbation_category_is_rejected(self):
        with pytest.raises(ValueError, match="sdk-ecal"):
            perturb_cycles("sdk-ecal")
        perturb_cycles("eenter:")            # a declared family prefix
