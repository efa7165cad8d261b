"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of each layer from outside the program:
a wrapper times the call with the host clock and subtracts the time its
child spans cover, so each layer gets a call count, a byte count where
the call moves a buffer, and a self time.  Spans are aggregated in memory
per target as they close; nothing is written out.

A module-level function is patched in every ``repro`` module that holds
it, because callers that imported it by name (``from repro.monitor.swap
import swap_out_page``) look it up in their own namespace.  The counts
are then checked against the program's own counters (see
:func:`cross_check`), which fails the run if a call site was missed.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

from repro.analysis.critpath import CLASSES, critpath_class


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module:qualname`` in a layer."""

    layer: str
    path: str
    size_param: str | None = None     # argument whose size is counted
    size_is_len: bool = True          # len(arg), else int(arg)


# Layer -> the public functions whose calls it times.  Layer names are
# the program's module names.
TARGETS = (
    Target("apps.serve", "repro.apps.kvserver:RespServer.handle_command"),
    Target("apps.serve", "repro.apps.webserver:HttpServer.handle_request"),
    *(Target("libos", f"repro.libos.occlum:OcclumLibos.{name}")
      for name in ("write_file", "read_file", "stat", "exists", "listen",
                   "accept", "recv", "send", "close")),
    Target("sdk.ecall", "repro.sdk.urts:EnclaveHandle.ecall"),
    Target("sdk.ocall", "repro.sdk.urts:EnclaveHandle.dispatch_ocall"),
    Target("sdk.stream", "repro.sdk.trts:EnclaveContext.read_stream",
           "size", size_is_len=False),
    Target("sdk.stream", "repro.sdk.trts:EnclaveContext.write_stream",
           "data"),
    *(Target("monitor.world", f"repro.monitor.world:WorldSwitchEngine.{name}")
      for name in ("eenter", "eexit", "aex", "eresume")),
    Target("monitor.pf",
           "repro.monitor.rustmonitor:RustMonitor.handle_enclave_page_fault"),
    Target("monitor.swap", "repro.monitor.swap:swap_out_page"),
    Target("monitor.swap", "repro.monitor.swap:swap_in_page"),
    Target("crypto.aead", "repro.crypto.cipher:aead_encrypt", "plaintext"),
    Target("crypto.aead", "repro.crypto.cipher:aead_decrypt", "blob"),
    Target("crypto.sha256", "repro.crypto.hashes:sha256"),
    Target("hw.paging", "repro.hw.paging:PageTable.translate"),
    Target("hw.memaccess", "repro.hw.memaccess:copy_in", "size",
           size_is_len=False),
    Target("hw.memaccess", "repro.hw.memaccess:copy_out", "data"),
    Target("hw.mem", "repro.hw.memmodel:MemorySubsystem.touch"),
    Target("hw.mem", "repro.hw.memmodel:MemorySubsystem.touch_sequential"),
    Target("osim.net", "repro.osim.net:Loopback.send"),
    Target("osim.net", "repro.osim.net:Loopback.recv"),
    Target("osim.user_copy", "repro.osim.kernel:Kernel.user_read", "size",
           size_is_len=False),
    Target("osim.user_copy", "repro.osim.kernel:Kernel.user_write", "data"),
    Target("osim.ioctl", "repro.osim.kmod:HyperEnclaveDevice.ioctl"),
)

# Traced during set-up too: enclave measurement and the load ioctls.
SETUP_LAYERS = ("crypto.sha256", "osim.ioctl")

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))


def _resolve(path: str):
    """(owner, attribute, original) for ``module:Name`` or ``module:Cls.m``."""
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    original = owner.__dict__[attr] if outer else getattr(owner, attr)
    return owner, attr, original


def _size_getter(fn, param: str, as_len: bool):
    index = list(inspect.signature(fn).parameters).index(param)

    def size_of(args, kwargs) -> int:
        value = args[index] if len(args) > index else kwargs[param]
        return len(value) if as_len else int(value)
    return size_of


class Tracer:
    """Aggregated host-time spans per target, with self-time accounting."""

    def __init__(self) -> None:
        # One child-time accumulator per open span; the sentinel at the
        # bottom collects top-level span time.
        self._stack = [0]
        # path -> [calls, self_ns, bytes]
        self.records: dict[str, list[int]] = {
            t.path: [0, 0, 0] for t in TARGETS}

    def _wrap(self, target: Target, fn):
        stack = self._stack
        record = self.records[target.path]
        clock = time.perf_counter_ns
        size_of = (_size_getter(fn, target.size_param, target.size_is_len)
                   if target.size_param else None)

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                record[0] += 1
                record[1] += elapsed - child
                if size_of is not None:
                    record[2] += size_of(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, layers=LAYERS):
        """Patch every target of ``layers`` for the duration of the block."""
        patched = []
        try:
            for target in TARGETS:
                if target.layer not in layers:
                    continue
                owner, attr, original = _resolve(target.path)
                wrapper = self._wrap(target, original)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = [module for name, module in
                               list(sys.modules.items())
                               if name.split(".")[0] == "repro"
                               and getattr(module, attr, None) is original]
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    patched.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(patched):
                setattr(holder, attr, original)

    # -- readout --------------------------------------------------------------

    def calls(self, path: str) -> int:
        return self.records[path][0]

    def layer_totals(self, layer: str) -> tuple[int, int, int]:
        """(calls, self_ns, bytes) summed over the layer's targets."""
        calls = self_ns = nbytes = 0
        for target in TARGETS:
            if target.layer == layer:
                c, s, b = self.records[target.path]
                calls += c
                self_ns += s
                nbytes += b
        return calls, self_ns, nbytes


# -- program counters ---------------------------------------------------------

def program_counters(platform) -> dict[str, float]:
    """The program's own counters, read without changing any state."""
    machine = platform.machine
    monitor = platform.monitor
    tlb = machine.tlb.stats()
    llc = machine.llc.stats()
    telemetry = machine.telemetry
    counters = {
        "world.enters": monitor.world.enters,
        "world.exits": monitor.world.exits,
        "world.aexes": monitor.world.aexes,
        "monitor.hypercalls": monitor.hypercalls,
        "epc.cross_steals": sum(n for (victim, aggressor), n
                                in monitor.epc_steals.items()
                                if victim != aggressor),
        "swap.versions": sum(state._version
                             for state in monitor._swap_states.values()),
        "net.messages_sent": platform.loopback.messages_sent,
        "paging.walks": (telemetry.paging_stats("enclave").walks
                         + telemetry.paging_stats("os").walks),
        "tlb.hits": tlb["hits"],
        "tlb.misses": tlb["misses"],
        "tlb.flushes": tlb["flushes"],
        "llc.hits": llc["hits"],
        "llc.misses": llc["misses"],
        "cycles.total": machine.cycles.total,
    }
    for category, cycles in machine.cycles.by_category.items():
        counters[f"cycles.{category}"] = cycles
    return counters


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()
            if value != before.get(key, 0)}


def cross_check(tracer: Tracer, delta: dict, requests: int,
                served: int | None) -> list[str]:
    """Span counts that disagree with the program's own counters."""
    calls = tracer.calls
    swap_out = calls("repro.monitor.swap:swap_out_page")
    swap_in = calls("repro.monitor.swap:swap_in_page")
    pairs = [
        ("eenter spans", calls("repro.monitor.world:WorldSwitchEngine.eenter"),
         "world.enters", delta.get("world.enters", 0)),
        ("eexit spans", calls("repro.monitor.world:WorldSwitchEngine.eexit"),
         "world.exits", delta.get("world.exits", 0)),
        ("aex spans", calls("repro.monitor.world:WorldSwitchEngine.aex"),
         "world.aexes", delta.get("world.aexes", 0)),
        ("swap_out spans", swap_out,
         "swap version delta", delta.get("swap.versions", 0)),
        ("aead calls", tracer.layer_totals("crypto.aead")[0],
         "swap-outs + swap-ins", swap_out + swap_in),
        ("aead_encrypt calls", calls("repro.crypto.cipher:aead_encrypt"),
         "swap-outs", swap_out),
        ("Loopback.send spans", calls("repro.osim.net:Loopback.send"),
         "messages_sent delta", delta.get("net.messages_sent", 0)),
        ("PageTable.translate spans", tracer.layer_totals("hw.paging")[0],
         "paging walks delta", delta.get("paging.walks", 0)),
        ("ecall spans", calls("repro.sdk.urts:EnclaveHandle.ecall"),
         "requests", requests),
    ]
    if served is not None:
        pairs.append(("serve spans", tracer.layer_totals("apps.serve")[0],
                      "requests served by the server", served))
    return [f"{a} = {x} but {b} = {y}" for a, x, b, y in pairs if x != y]


def sim_shares(delta: dict) -> dict[str, float]:
    """Share of the window's simulated cycles per critical-path class."""
    total = delta.get("cycles.total", 0)
    shares = dict.fromkeys(CLASSES, 0.0)
    for key, cycles in delta.items():
        if key.startswith("cycles.") and key != "cycles.total":
            shares[critpath_class(key[len("cycles."):])] += cycles
    return {name: (cycles / total if total else 0.0)
            for name, cycles in shares.items()}


def layer_metrics(tracer: Tracer, delta: dict, window_ns: int,
                  setup: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced window, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def timed(layer: str, count_name: str | None, use_bytes: bool = False):
        calls, self_ns, nbytes = tracer.layer_totals(layer)
        if count_name is not None:
            out[f"{layer}.{count_name}"] = (calls, "count")
        if use_bytes:
            out[f"{layer}.bytes"] = (nbytes, "bytes")
        out[f"{layer}.self_ms"] = (self_ns / 1e6, "ms")
        out[f"{layer}.self_share"] = (self_ns / window_ns, "ratio")

    timed("apps.serve", "calls")
    timed("libos", "calls")
    timed("sdk.ecall", "calls")
    timed("sdk.ocall", "calls")
    timed("sdk.stream", None, use_bytes=True)
    out["monitor.world.enters"] = (delta.get("world.enters", 0), "count")
    out["monitor.world.exits"] = (delta.get("world.exits", 0), "count")
    out["monitor.world.aexes"] = (delta.get("world.aexes", 0), "count")
    timed("monitor.world", None)
    timed("monitor.pf", "calls")
    out["monitor.swap.out_pages"] = (
        tracer.calls("repro.monitor.swap:swap_out_page"), "count")
    out["monitor.swap.in_pages"] = (
        tracer.calls("repro.monitor.swap:swap_in_page"), "count")
    timed("monitor.swap", None)
    out["monitor.epc.cross_steals"] = (delta.get("epc.cross_steals", 0),
                                       "count")
    out["monitor.hypercalls"] = (delta.get("monitor.hypercalls", 0), "count")
    timed("crypto.aead", "calls", use_bytes=True)
    timed("crypto.sha256", "calls")
    out["crypto.sha256.setup_calls"] = (
        setup.layer_totals("crypto.sha256")[0], "count")
    timed("hw.paging", "translates")
    timed("hw.memaccess", None, use_bytes=True)
    timed("hw.mem", "touches")
    hits, misses = delta.get("tlb.hits", 0), delta.get("tlb.misses", 0)
    out["hw.tlb.hits"] = (hits, "count")
    out["hw.tlb.misses"] = (misses, "count")
    out["hw.tlb.flushes"] = (delta.get("tlb.flushes", 0), "count")
    out["hw.tlb.hit_ratio"] = (hits / (hits + misses) if hits + misses
                               else 0.0, "ratio")
    hits, misses = delta.get("llc.hits", 0), delta.get("llc.misses", 0)
    out["hw.llc.hits"] = (hits, "count")
    out["hw.llc.misses"] = (misses, "count")
    out["hw.llc.hit_ratio"] = (hits / (hits + misses) if hits + misses
                               else 0.0, "ratio")
    timed("osim.net", "calls")
    timed("osim.user_copy", None, use_bytes=True)
    out["osim.ioctl.calls"] = (tracer.layer_totals("osim.ioctl")[0], "count")
    out["osim.ioctl.setup_calls"] = (setup.layer_totals("osim.ioctl")[0],
                                     "count")
    for name, share in sim_shares(delta).items():
        out[f"sim.share.{name}"] = (share, "ratio")
    return out
