"""Request-scoped causal tracing: the *why was this call slow* layer.

A :class:`RequestTracer` assigns a deterministic trace id to every
top-level edge call (``EnclaveHandle.ecall``) and carries that context
across the enclave boundary: world switches, nested ocalls, hypercalls,
page faults, TLB shootdowns and swap in/out executed on behalf of the
request are recorded as a *causal segment tree* with cycle-domain
begin/end stamps.  ``repro.analysis.critpath`` turns the trees into
critical paths, tail-latency tables and cross-tenant interference
reports, which ``python -m repro.bench report`` prints from the bench
artifact's ``requests`` block (the document's only copy).

Determinism contract (the bar of every observer on the charged path):

* Trace ids derive from ``(machine label, vcpu, monotonic per-vCPU
  counter)`` — never host time, so ids are bit-identical across runs,
  the fast path and the reference loop, and flight-recorder replay.
* Hooks only *read* simulated state (``cycles.total`` and the category
  breakdown at op boundaries, which are batch-invariant: every touch
  issues exactly one charge on either hot-path implementation).  The
  tracer never charges a cycle — tracing on/off cannot move a figure,
  fingerprint or journal event.
* Hook sites reach the tracer only through ``Telemetry.site``, whose
  disabled path is one branch over every observer; with a tracer
  attached but no open request (e.g. enclave build-time hypercalls) the
  hook is one list check.

The segment kinds, and which of them are flow steps, are declared in
:data:`repro.hw.cycles.SITES`.
"""

from __future__ import annotations

from repro.hw.cycles import SEGMENT_KINDS

REQUESTS_VERSION = 1
REQUESTS_KIND = "hyperenclave-requests"


class RequestTracer:
    """Records one causal segment tree per top-level edge call.

    Attach with :func:`attach_machine`; the SDK / monitor hook sites
    find the tracer at ``machine.telemetry.requests``.  All begin/end
    tokens are the segment records themselves — ``end_*`` unwinds the
    open stack down to the token, so an exception that abandons inner
    segments still leaves a balanced tree.
    """

    __slots__ = ("label", "tenants", "requests", "_cycles", "_seq",
                 "_stack")

    def __init__(self, cycles, *, label: str = "machine") -> None:
        self.label = label
        #: enclave-id (as str) -> display name, applied at report time.
        self.tenants: dict[str, str] = {}
        #: completed request records, in completion order.
        self.requests: list[dict] = []
        self._cycles = cycles
        #: vcpu -> next sequence number (monotonic, per-vCPU).
        self._seq: dict[int, int] = {}
        self._stack: list[dict] = []

    # -- naming --------------------------------------------------------------

    def name_tenant(self, enclave_id, display: str) -> None:
        """Attach a display name to an enclave id (report-time only, so
        naming mid-run never splits an attribution)."""
        self.tenants[str(enclave_id)] = str(display)

    # -- request lifecycle ---------------------------------------------------

    def begin_request(self, name: str, enclave_id, *, vcpu: int = 0) -> dict:
        """Open a top-level request (or, re-entrantly, a nested ``ecall``
        segment under the already-open request)."""
        cycle = int(self._cycles.total)
        if self._stack:
            # An ecall issued from inside an ocall handler: same trace
            # context, one more hop in the causal tree.
            segment = {"kind": "ecall", "name": str(name),
                       "begin": cycle, "end": None, "segments": []}
            self._stack[-1]["segments"].append(segment)
            self._stack.append(segment)
            return segment
        seq = self._seq.get(vcpu, 0)
        self._seq[vcpu] = seq + 1
        record = {
            "seq": seq,
            "vcpu": int(vcpu),
            "name": str(name),
            "tenant": str(enclave_id),
            "begin": cycle,
            "end": None,
            "error": False,
            "categories": {},
            "steals": {},
            "segments": [],
            # Snapshot for the end-of-request category delta; stripped
            # before the record is published.
            "_cat0": dict(self._cycles.by_category),
        }
        self._stack.append(record)
        return record

    def end_request(self, token, *, error: bool = False) -> None:
        """Close a request opened by :meth:`begin_request` (a nested
        ``ecall`` token closes as a segment)."""
        if not self.end_segment(token) or "seq" not in token:
            return
        base = token.pop("_cat0")
        categories: dict[str, float] = {}
        for category, value in self._cycles.by_category.items():
            delta = value - base.get(category, 0)
            if delta:
                categories[category] = (int(delta)
                                        if float(delta).is_integer()
                                        else delta)
        token["categories"] = categories
        token["error"] = bool(error)
        self.requests.append(token)

    # -- segments ------------------------------------------------------------

    def begin_segment(self, kind: str, name=None) -> dict | None:
        """Open a child segment of the innermost open scope; a no-op
        (returns ``None``) when no request is in flight."""
        if not self._stack:
            return None
        segment = {"kind": kind, "begin": int(self._cycles.total),
                   "end": None, "segments": []}
        if name is not None:
            segment["name"] = str(name)
        self._stack[-1]["segments"].append(segment)
        self._stack.append(segment)
        return segment

    def end_segment(self, token) -> bool:
        """Close a segment, unwinding any abandoned inner segments;
        False when ``token`` is not open."""
        if not any(entry is token for entry in self._stack):
            return False
        cycle = int(self._cycles.total)
        while self._stack:
            top = self._stack.pop()
            if top.get("end") is None:
                top["end"] = cycle
            if top is token:
                break
        return True

    # -- attribution ---------------------------------------------------------

    def note_steal(self, victim, aggressor) -> None:
        """Record an EPC frame steal performed on behalf of the open
        request (the request's tenant is the aggressor)."""
        if not self._stack:
            return
        root = self._stack[0]
        if "seq" not in root:
            return
        key = f"{victim}->{aggressor}"
        root["steals"][key] = root["steals"].get(key, 0) + 1

    # -- export --------------------------------------------------------------

    def request_id(self, record: dict) -> str:
        """The deterministic trace id: ``label/cpuN/seq``."""
        return f"{self.label}/cpu{record['vcpu']}/{record['seq']}"

    def document(self) -> dict:
        """This tracer's requests as a JSON-ready trace dict."""
        exported = []
        for record in self.requests:
            out = {k: v for k, v in record.items() if not k.startswith("_")}
            out["id"] = self.request_id(record)
            exported.append(out)
        return {"label": self.label, "tenants": dict(self.tenants),
                "requests": exported}


# -- wiring ------------------------------------------------------------------


def attach_machine(machine, *, label: str = "machine") -> RequestTracer:
    """Attach a request tracer to a machine (idempotent; relabels if
    one is already attached)."""
    tracer = machine.telemetry.requests
    if tracer is None:
        tracer = RequestTracer(machine.cycles, label=label)
        machine.telemetry.requests = tracer
    else:
        tracer.label = label
    return tracer


def detach_machine(machine) -> None:
    """Remove an attached tracer; with no other observer on, every hook
    site goes back to one branch."""
    machine.telemetry.requests = None


# -- documents ---------------------------------------------------------------


def requests_document(tracers) -> dict | None:
    """Fold one or more tracers into the requests JSON document."""
    traces = [t.document() for t in tracers if t is not None]
    if not traces:
        return None
    return {"version": REQUESTS_VERSION, "kind": REQUESTS_KIND,
            "traces": traces}


# -- Perfetto flow events ----------------------------------------------------

def _flow_steps(segments: list, out: list) -> None:
    # A flow step (``ph: "t"``) is a hop that moves a request across the
    # boundary and back; its site row says which kinds those are.
    for segment in segments:
        if SEGMENT_KINDS[segment["kind"]].flow:
            out.append(segment)
        _flow_steps(segment["segments"], out)


def request_flow_events(trace: dict, *, pid: int = 1) -> list[dict]:
    """Chrome-trace flow events (``ph: "s"/"t"/"f"``) linking each
    request's ecall → ocall → resume spans across the trace."""
    events: list[dict] = []
    for record in trace["requests"]:
        # Deterministic numeric flow id from (pid, vcpu, seq): never
        # host time, unique within a trace file.
        flow_id = pid * 1_000_000 + record["vcpu"] * 100_000 + record["seq"]
        name = f"request:{record['name']}"
        args = {"request": record["id"], "tenant": record["tenant"]}
        tid = record["vcpu"]
        events.append({"ph": "s", "cat": "request", "name": name,
                       "id": flow_id, "pid": pid, "tid": tid,
                       "ts": record["begin"], "args": args})
        steps: list[dict] = []
        _flow_steps(record["segments"], steps)
        for segment in steps:
            events.append({"ph": "t", "cat": "request", "name": name,
                           "id": flow_id, "pid": pid, "tid": tid,
                           "ts": segment["begin"], "args": args})
        events.append({"ph": "f", "cat": "request", "name": name,
                       "id": flow_id, "pid": pid, "tid": tid,
                       "ts": record["end"], "bp": "e", "args": args})
    return events
