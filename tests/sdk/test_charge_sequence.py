"""Pin the exact sequence of cycle charges on the edge-call paths.

Every ``CycleCounter.charge`` call is recorded in order, as
``(category, cycles)``, by patching the method on the class the way
:class:`repro.flightrec.perturb.perturb_cycles` does.  The request
tracer's per-request category deltas are read between charges, and
``perturb_cycles`` targets a charge by its position, so a speedup of
the ECALL/OCALL paths must keep not just the totals but every call, its
category, its amount and its position.  The sha256 literals below were
computed before the world-switch costs and marshalling plans were
resolved once per enclave; they must not change.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.hw import costs
from repro.hw.cycles import CycleCounter
from repro.hw.interrupts import VEC_PF
from repro.monitor.structs import EnclaveConfig, EnclaveMode
from repro.platform import TeePlatform
from repro.sdk.image import EnclaveImage

from .conftest import SMALL

EDL = """
enclave {
    trusted {
        public uint64 empty();
        public uint64 t_in([in, size=n] bytes data, uint64 n);
        public uint64 t_out([out, size=n] bytes buf, uint64 n);
        public uint64 t_inout([in, out, size=n] bytes buf, uint64 n);
        public uint64 t_user([user_check] bytes ptr, uint64 n);
        public uint64 t_string([string] bytes s);
        public uint64 t_ocalls(uint64 n);
        public uint64 t_switchless(uint64 n);
        public uint64 t_reenter(uint64 n);
        public uint64 t_ud();
        public uint64 t_ud_two_phase();
    };
    untrusted {
        uint64 o_in([in, size=n] bytes data, uint64 n);
        uint64 o_out([out, size=n] bytes data, uint64 n);
        uint64 o_inout([in, out, size=n] bytes data, uint64 n);
        uint64 o_user([user_check] bytes ptr, uint64 n);
        uint64 o_string([string] bytes msg);
        uint64 o_nop();
        uint64 o_reenter(uint64 n);
    };
};
"""


def _empty(ctx):
    return 0


def _t_in(ctx, data, n):
    return sum(data)


def _t_out(ctx, buf, n):
    buf[:] = bytes(i & 0xFF for i in range(n))
    return n


def _t_inout(ctx, buf, n):
    for i in range(n):
        buf[i] ^= 0x5A
    return n


def _t_user(ctx, ptr, n):
    return sum(ctx.copy_from_user(ptr, n))


def _t_string(ctx, s):
    return len(s)


def _t_ocalls(ctx, n):
    total = ctx.ocall("o_in", data=bytes(i & 0xFF for i in range(n)), n=n)
    _, outs = ctx.ocall("o_out", n=n)
    total += sum(outs["data"])
    _, outs = ctx.ocall("o_inout", data=bytes([7]) * n, n=n)
    total += sum(outs["data"])
    total += ctx.ocall("o_user", ptr=ctx.globals["user_va"], n=n)
    total += ctx.ocall("o_string", msg=b"hello, untrusted world")
    total += ctx.ocall("o_nop")
    # A multi-page [out] read-back: three pages through the OCALL frame.
    _, outs = ctx.ocall("o_out", n=3 * 4096 + 100)
    return total + len(outs["data"])


def _t_switchless(ctx, n):
    return ctx.ocall("o_in", data=bytes([3]) * n, n=n)


def _t_reenter(ctx, n):
    return ctx.ocall("o_reenter", n=n)


def _t_ud(ctx):
    ctx.register_exception_handler(lambda c, vector: None)
    ctx.trigger_ud()
    return 0


def _t_ud_two_phase(ctx):
    # On a P-Enclave, leaving #UD off the white-list forces the
    # two-phase path (AEX, signal, internal ECALL, ERESUME).
    ctx.register_exception_handler(lambda c, vector: None, vectors={VEC_PF})
    ctx.trigger_ud()
    return 0


TRUSTED = {
    "empty": _empty, "t_in": _t_in, "t_out": _t_out, "t_inout": _t_inout,
    "t_user": _t_user, "t_string": _t_string, "t_ocalls": _t_ocalls,
    "t_switchless": _t_switchless, "t_reenter": _t_reenter, "t_ud": _t_ud,
    "t_ud_two_phase": _t_ud_two_phase,
}

PLATFORMS = {
    "hu": (TeePlatform.hyperenclave, EnclaveMode.HU),
    "gu": (TeePlatform.hyperenclave, EnclaveMode.GU),
    "p": (TeePlatform.hyperenclave, EnclaveMode.P),
    "sgx": (TeePlatform.intel_sgx, EnclaveMode.GU),
}

# (sha256 of the charge sequence, number of charges), per mode.
EXPECTED = {
    "hu": ("56edc77459187f5103dbab5088d4d5a9c1e6fea84a043a870487c9822698f6a7",
           297),
    "gu": ("c8f47f9b3de90bfab2dae96e7f24009703499b246a1c50de8b1b5995dce6e228",
           297),
    "p": ("86bd68b7a883b1da71bcf8748be0941f1e098e0adb0e7be0c67e0488223f593f",
          305),
    "sgx": ("7304ea9083059c6d0ccb188bdf040900dfdfac6e70d09ed17923c87444fb327c",
            295),
}


class ChargeRecorder:
    """Record every ``CycleCounter.charge`` call, in order."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, float]] = []
        self._original = None

    def __enter__(self) -> "ChargeRecorder":
        self._original = original = CycleCounter.charge
        calls = self.calls

        def charge(counter, cycles, category):
            calls.append((category, cycles))
            return original(counter, cycles, category)

        CycleCounter.charge = charge
        return self

    def __exit__(self, *exc) -> bool:
        CycleCounter.charge = self._original
        return False

    def digest(self) -> str:
        text = "".join(f"{cat}\t{cyc!r}\n" for cat, cyc in self.calls)
        return hashlib.sha256(text.encode()).hexdigest()


def _image(mode: EnclaveMode) -> EnclaveImage:
    return EnclaveImage.build(
        "charges", EDL, dict(TRUSTED),
        EnclaveConfig(mode=mode, heap_size=1024 * 1024,
                      stack_size=64 * 1024, tcs_count=2,
                      marshalling_buffer_size=256 * 1024))


def _scenario(platform: TeePlatform, mode: EnclaveMode) -> None:
    handle = platform.load_enclave(_image(mode))
    handle.register_ocall("o_in", lambda data, n: sum(data))
    handle.register_ocall(
        "o_out", lambda data, n: (n, {"data": bytes(i % 251
                                                    for i in range(n))}))
    handle.register_ocall(
        "o_inout", lambda data, n: (n, {"data": bytes(b + 1 for b in data)}))
    handle.register_ocall("o_user", lambda ptr, n: ptr & 0xFF)
    handle.register_ocall("o_string", lambda msg: len(msg))
    handle.register_ocall("o_nop", lambda: 0)
    handle.register_ocall(
        "o_reenter", lambda n: handle.ecall("t_in", data=bytes([1]) * n, n=n))

    user_va = handle.msbuf_user_alloc(64)
    handle.app_write(user_va, bytes(range(64)))
    handle.ctx.globals["user_va"] = user_va

    handle.ecall("empty")
    handle.ecall("t_in", data=bytes(range(200)), n=200)
    handle.ecall("t_out", n=5000)
    handle.ecall("t_inout", buf=bytes(range(100)), n=100)
    handle.ecall("t_user", ptr=user_va, n=64)
    handle.ecall("t_string", s=b"a [string] parameter")
    handle.ecall("t_ocalls", n=300)
    handle.enable_switchless()
    handle.ecall("t_switchless", n=40)
    handle.disable_switchless()
    handle.ecall("t_reenter", n=30)
    handle.ecall("t_ud")
    if mode is EnclaveMode.P:
        handle.ecall("t_ud_two_phase")
    handle.destroy()


def _record(key: str) -> ChargeRecorder:
    boot, mode = PLATFORMS[key]
    platform = boot(SMALL)
    with ChargeRecorder() as recorder:
        _scenario(platform, mode)
    return recorder


@pytest.mark.parametrize("key", sorted(PLATFORMS))
def test_charge_sequence_is_pinned(key):
    recorder = _record(key)
    categories = {cat for cat, _ in recorder.calls}
    # The scenario really reaches every path it is meant to pin.
    assert {"sdk-ecall", "sdk-ocall", "memcpy", "tlb-warmup",
            "switchless", f"aex:{key}", f"eresume:{key}"} <= categories
    if key == "p":
        # The in-enclave IDT delivery, besides the two-phase path.
        assert ("exception:p", 258) in recorder.calls
    assert (recorder.digest(), len(recorder.calls)) == EXPECTED[key]


def _inflated(factor: int) -> dict[str, costs.WorldSwitchCosts]:
    return {mode: costs.WorldSwitchCosts(
                eenter=[(name, c * factor) for name, c in sw.eenter],
                eexit=[(name, c * factor) for name, c in sw.eexit])
            for mode, sw in costs.SWITCH_COSTS.items()}


def test_new_enclave_charges_patched_switch_costs(monkeypatch):
    """The switch costs are read from the live tables when an enclave is
    created, so a patched table reaches every enclave created after it."""
    platform = TeePlatform.hyperenclave(SMALL)
    inflated = _inflated(3)
    monkeypatch.setattr(costs, "SWITCH_COSTS", inflated)
    handle = platform.load_enclave(_image(EnclaveMode.GU))
    with ChargeRecorder() as recorder:
        handle.ecall("empty")
    charged = {cat: cyc for cat, cyc in recorder.calls
               if cat.startswith(("eenter:", "eexit:"))}
    assert charged == {"eenter:gu": inflated["gu"].eenter_total,
                       "eexit:gu": inflated["gu"].eexit_total}
    assert inflated["gu"].eenter_total == 3 * 1704
    handle.destroy()
