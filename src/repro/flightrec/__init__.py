"""The flight recorder: deterministic record/replay and crash forensics.

Three capabilities over the simulated platform:

* **record** — journal every trace-ring event (losslessly, via a ring
  tap) plus periodic hash-chained machine checkpoints built on
  ``Machine.state_hash()``, with all nondeterministic inputs (machine
  config, TPM seed) captured in the journal header;
* **replay** — re-run the recorded scenario and bisect to the *first*
  divergent event, checkpoint chain first (binary search), then
  event-by-event inside the narrowed window;
* **forensics** — on a ``SanitizerViolation`` or unhandled fault, emit a
  bundle: the machine's record (cycles, metrics, hardware stats, frame
  table) plus the machine state hash, CPU, page-table and TLB dumps,
  open span stack and the last N journal events.

The recorder rides on the telemetry sink, the one process-wide capture
hook, and ``python -m repro.bench`` is the one CLI: ``run --record DIR``
records, ``replay JOURNAL`` replays, and ``report`` renders a journal or
a bundle.  Recording is a pure observer: it never charges cycles and
its disabled path is a single branch, so Table 1/2 numbers are
bit-identical with recording on or off (pinned by test).
"""

from repro.flightrec.journal import (Checkpoint, Journal, JournalError,
                                     JournalEvent)
from repro.flightrec.recorder import FlightRecorder
from repro.flightrec.replay import Divergence, replay_journal

__all__ = [
    "Checkpoint", "Divergence", "FlightRecorder", "Journal",
    "JournalError", "JournalEvent", "replay_journal",
]
