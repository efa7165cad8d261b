"""Cross-mode flight-recorder replay: record legacy, replay fast.

The flight recorder's divergence bisection is the strongest equivalence
check available: every traced event (cycle stamp, kind, detail, causal
path) and every state-hash checkpoint must match across fast-path modes,
not just the end-of-run figures.
"""

from __future__ import annotations

import pytest

from repro.flightrec import scenario as flightrec_scenario
from repro.flightrec.replay import replay_journal
from repro.flightrec.scenario import run_recorded
from repro.hw import fastpath
from tests.flightrec.conftest import SCENARIO_ID, demo_lifecycle


@pytest.fixture
def lifecycle_scenario():
    flightrec_scenario.register(SCENARIO_ID, demo_lifecycle)
    yield SCENARIO_ID
    flightrec_scenario.unregister(SCENARIO_ID)


def _record_in_mode(scenario, mode):
    fastpath.set_mode(mode)
    journal, figures = run_recorded(scenario, {"iters": 3},
                                    checkpoint_every=16)
    return journal, figures


@pytest.mark.parametrize("record_mode,replay_mode", [
    (fastpath.MODE_LEGACY, fastpath.MODE_PYTHON),
    (fastpath.MODE_PYTHON, fastpath.MODE_LEGACY),
], ids=["legacy->fast", "fast->legacy"])
def test_replay_across_modes_zero_divergence(lifecycle_scenario,
                                             record_mode, replay_mode):
    journal, figures = _record_in_mode(lifecycle_scenario, record_mode)
    assert figures["sum"] == 3 * 42
    fastpath.set_mode(replay_mode)
    result = replay_journal(journal)
    assert result.ok, result.render()
    assert result.divergence is None


def test_cross_mode_journals_bit_identical(lifecycle_scenario):
    # Stronger than replay: the full event streams and checkpoint chains
    # recorded under each mode are equal element-for-element.
    legacy, _ = _record_in_mode(lifecycle_scenario, fastpath.MODE_LEGACY)
    fast, _ = _record_in_mode(lifecycle_scenario, fastpath.MODE_PYTHON)
    assert [e.as_list() for e in legacy.events] == \
        [e.as_list() for e in fast.events]
    assert [c.chain for c in legacy.checkpoints] == \
        [c.chain for c in fast.checkpoints]
