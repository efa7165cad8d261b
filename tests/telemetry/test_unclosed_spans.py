"""Runtime detection of unclosed spans at export time.

The static side of this contract is staticcheck rule SC007 (spans must
be context-managed); this is the runtime counterpart: a span left open when
a snapshot/profile is taken means unattributed cycles, so strict exports
raise :class:`~repro.telemetry.UnclosedSpanError` naming the open spans,
and lenient exports warn and report the open count.
"""

import pytest

from repro.hw.cycles import CycleCounter
from repro.telemetry import Telemetry, UnclosedSpanError
from repro.telemetry.export import machine_snapshot, snapshot_document


@pytest.fixture
def tel():
    t = Telemetry(CycleCounter())
    t.enable()
    return t


def _open(tel, name):
    span = tel.span(name)
    span.__enter__()
    return span


class TestUnclosedSpanDetection:
    def test_open_span_names_tracks_the_stack(self, tel):
        assert tel.open_span_names() == []
        outer = _open(tel, "outer")
        inner = _open(tel, "inner")
        assert tel.open_span_names() == ["outer", "inner"]
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
        assert tel.open_span_names() == []

    def test_strict_snapshot_raises_naming_open_spans(self, tel):
        outer = _open(tel, "outer")
        inner = _open(tel, "inner")
        with pytest.raises(UnclosedSpanError, match="outer > inner"):
            machine_snapshot(tel, "m")
        with pytest.raises(UnclosedSpanError, match=r"2 span\(s\)"):
            snapshot_document([("m", tel)])
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)

    def test_lenient_snapshot_warns_and_counts_open(self, tel):
        span = _open(tel, "pending")
        with pytest.warns(RuntimeWarning, match="pending"):
            snap = machine_snapshot(tel, "m", strict=False)
        assert snap["spans"]["open"] == 1
        span.__exit__(None, None, None)

    def test_closed_spans_export_cleanly(self, tel):
        with tel.span("done"):
            tel.cycles.charge(10, "sdk-ecall")
        snap = machine_snapshot(tel, "m")
        assert snap["spans"] == {"recorded": 1, "open": 0}

    def test_error_is_a_runtime_error(self):
        # Callers that guard exports broadly must still catch this.
        assert issubclass(UnclosedSpanError, RuntimeError)
