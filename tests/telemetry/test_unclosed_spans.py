"""Runtime detection of unclosed spans at export time.

The static side of this contract is staticcheck rule SC007 (spans must
be context-managed); this is the runtime counterpart: a span left open when
a snapshot/profile is taken means unattributed cycles, so exports raise
:class:`~repro.telemetry.UnclosedSpanError` naming the open spans.
"""

import pytest

from repro.hw.cycles import CycleCounter
from repro.telemetry import Telemetry, UnclosedSpanError, validate_snapshot
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

    def test_closed_spans_export_cleanly(self, tel):
        with tel.span("done"):
            tel.cycles.charge(10, "sdk-ecall")
        snap = machine_snapshot(tel, "m")
        assert snap["spans"] == {"recorded": 1, "dropped": 0}

    def test_spans_beyond_the_deque_count_as_dropped(self):
        # The snapshot counts every closed span, not the bounded deque
        # the Chrome trace reads, so span loss is never silent.
        tel = Telemetry(CycleCounter(), span_capacity=8)
        tel.enable()
        for _ in range(10):
            with tel.span("outer"):
                with tel.span("inner"):
                    tel.cycles.charge(10, "sdk-ecall")
        snap = machine_snapshot(tel, "m")
        assert len(tel.spans) == 8
        assert snap["spans"] == {"recorded": 20, "dropped": 12}
        validate_snapshot(snapshot_document([("m", tel)]))

    def test_error_is_a_runtime_error(self):
        # Callers that guard exports broadly must still catch this.
        assert issubclass(UnclosedSpanError, RuntimeError)
