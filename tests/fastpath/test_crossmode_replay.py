"""Cross-path flight-recorder replay: record on one path, replay on the other.

"legacy" below is the per-line reference loop (forced through
``counting_paths``), "fast" the default path.  The flight recorder's
divergence bisection is the strongest equivalence check available:
every traced event (cycle stamp, kind, detail, causal path) and every
state-hash checkpoint must match across the two, not just the
end-of-run figures.
"""

from __future__ import annotations

import pytest

from repro.flightrec import scenario as flightrec_scenario
from repro.flightrec.replay import replay_journal
from repro.flightrec.scenario import run_recorded
from tests.fastpath.conftest import counting_paths
from tests.flightrec.conftest import SCENARIO_ID, demo_lifecycle


@pytest.fixture
def lifecycle_scenario():
    flightrec_scenario.register(SCENARIO_ID, demo_lifecycle)
    yield SCENARIO_ID
    flightrec_scenario.unregister(SCENARIO_ID)


def _record(monkeypatch, scenario, *, reference: bool):
    with counting_paths(monkeypatch, reference=reference):
        return run_recorded(scenario, {"iters": 3}, checkpoint_every=16)


@pytest.mark.parametrize("record_reference,replay_reference", [
    (True, False), (False, True)], ids=["legacy->fast", "fast->legacy"])
def test_replay_across_modes_zero_divergence(
        lifecycle_scenario, monkeypatch, record_reference, replay_reference):
    journal, figures = _record(monkeypatch, lifecycle_scenario,
                               reference=record_reference)
    assert figures["sum"] == 3 * 42
    with counting_paths(monkeypatch, reference=replay_reference):
        result = replay_journal(journal)
    assert result.ok, result.render()
    assert result.divergence is None


def test_cross_mode_journals_bit_identical(lifecycle_scenario, monkeypatch):
    # Stronger than replay: the full event streams and checkpoint chains
    # recorded on each path are equal element-for-element.
    legacy, _ = _record(monkeypatch, lifecycle_scenario, reference=True)
    fast, _ = _record(monkeypatch, lifecycle_scenario, reference=False)
    assert [e.as_list() for e in legacy.events] == \
        [e.as_list() for e in fast.events]
    assert [c.chain for c in legacy.checkpoints] == \
        [c.chain for c in fast.checkpoints]


def test_table2_replay_across_paths_zero_divergence(monkeypatch):
    # The demo lifecycle never reaches MemorySubsystem.touch; Table 2's
    # #PF handling does, so its journal pins the hot path itself.
    journal, _ = _record(monkeypatch, "bench:table2_exceptions",
                         reference=True)
    with counting_paths(monkeypatch, reference=False) as counts:
        result = replay_journal(journal)
    assert counts["fast"] > 0
    assert result.ok, result.render()
    assert result.divergence is None
