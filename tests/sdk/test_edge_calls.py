"""Tests for ECALL/OCALL marshalling semantics and their calibrated costs."""

import pytest

from repro.errors import SdkError, SecurityViolation
from repro.hw import costs
from repro.monitor.structs import EnclaveMode
from repro.platform import TeePlatform

from .conftest import SMALL, demo_image


class TestEcallSemantics:
    def test_scalars(self, he_handle):
        assert he_handle.proxies.add_numbers(a=20, b=22) == 42

    def test_in_buffer(self, he_handle):
        assert he_handle.proxies.sum_bytes(data=b"\x01\x02\x03", n=3) == 6

    def test_out_buffer(self, he_handle):
        ret, outs = he_handle.proxies.fill_pattern(n=16)
        assert ret == 16
        assert outs["buf"] == bytes((i * 7) & 0xFF for i in range(16))

    def test_inout_buffer(self, he_handle):
        ret, outs = he_handle.proxies.increment_all(buf=b"\x00\x01\xFF", n=3)
        assert outs["buf"] == b"\x01\x02\x00"

    def test_private_ecall_blocked(self, he_handle):
        with pytest.raises(SecurityViolation):
            he_handle.ecall("private_entry")

    def test_unknown_ecall(self, he_handle):
        from repro.errors import EdlError
        with pytest.raises(EdlError):
            he_handle.ecall("nonexistent")

    def test_size_mismatch_rejected(self, he_handle):
        with pytest.raises(SdkError):
            he_handle.proxies.sum_bytes(data=b"\x01\x02", n=5)

    def test_missing_argument_rejected(self, he_handle):
        with pytest.raises(SdkError):
            he_handle.proxies.sum_bytes(data=b"\x01")

    def test_unknown_argument_rejected(self, he_handle):
        with pytest.raises(SdkError):
            he_handle.proxies.add_numbers(a=1, b=2, c=3)

    def test_oversized_payload_overflows_msbuf(self, he_handle):
        big = he_handle.msbuf_vma.size   # larger than the ECALL region
        with pytest.raises(SdkError, match="overflow"):
            he_handle.proxies.sum_bytes(data=b"\x00" * big, n=big)

    def test_enclave_state_persists_across_ecalls(self, he_handle):
        he_handle.proxies.store_secret(secret=b"hunter2", n=7)
        assert he_handle.proxies.check_secret(guess=b"hunter2", n=7) == 1
        assert he_handle.proxies.check_secret(guess=b"hunter1", n=7) == 0

    def test_destroyed_enclave_rejects_ecalls(self, he_platform):
        handle = he_platform.load_enclave(demo_image())
        handle.destroy()
        with pytest.raises(SdkError):
            handle.proxies.add_numbers(a=1, b=2)

    def test_concurrent_tcs_exhaustion(self, he_handle):
        """Each ECALL takes a TCS; a recursive ECALL from an OCALL would
        need a second, and the config has two."""
        tcs1 = he_handle.enclave.acquire_tcs()
        tcs2 = he_handle.enclave.acquire_tcs()
        from repro.errors import EnclaveError
        with pytest.raises(EnclaveError):
            he_handle.proxies.add_numbers(a=1, b=2)
        he_handle.enclave.release_tcs(tcs1)
        he_handle.enclave.release_tcs(tcs2)
        assert he_handle.proxies.add_numbers(a=1, b=2) == 3


class TestOcallSemantics:
    def test_in_ocall(self, he_handle):
        # echo_through_ocall forwards the buffer to ocall_sink.
        assert he_handle.proxies.echo_through_ocall(
            data=b"\x01\x01\x01", n=3) == 3

    def test_out_ocall(self, he_platform):
        handle = he_platform.load_enclave(_ocall_out_image())
        handle.register_ocall(
            "ocall_source",
            lambda data, n: (n, {"data": bytes(i & 0xFF for i in range(n))}))
        assert handle.ecall("pull", n=5) == 0 + 1 + 2 + 3 + 4
        handle.destroy()

    def test_inout_ocall(self, he_platform):
        handle = he_platform.load_enclave(_ocall_out_image())
        handle.register_ocall(
            "ocall_transform",
            lambda data, n: (0, {"data": bytes(b ^ 0xFF for b in data)}))
        assert handle.ecall("flip", n=4) == (0xFF - 1) * 4 + (0 + 1 + 2 + 3)
        handle.destroy()

    def test_unregistered_ocall_fails(self, he_platform):
        handle = he_platform.load_enclave(_ocall_out_image())
        with pytest.raises(SdkError, match="no OCALL implementation"):
            handle.ecall("pull", n=4)
        handle.destroy()

    def test_ocall_output_overflow_rejected(self, he_platform):
        handle = he_platform.load_enclave(_ocall_out_image())
        handle.register_ocall("ocall_source",
                              lambda data, n: (0, {"data": b"\x00" * (n + 9)}))
        with pytest.raises(SdkError, match="larger"):
            handle.ecall("pull", n=4)
        handle.destroy()

    def test_ocall_unknown_output_rejected(self, he_platform):
        handle = he_platform.load_enclave(_ocall_out_image())
        handle.register_ocall("ocall_source",
                              lambda data, n: (0, {"bogus": b"\x00"}))
        with pytest.raises(SdkError, match="unknown out params"):
            handle.ecall("pull", n=4)
        handle.destroy()


_OCALL_EDL = """
enclave {
    trusted {
        public uint64 pull(uint64 n);
        public uint64 flip(uint64 n);
    };
    untrusted {
        uint64 ocall_source([out, size=n] bytes data, uint64 n);
        uint64 ocall_transform([in, out, size=n] bytes data, uint64 n);
    };
};
"""


def _pull(ctx, n):
    _, outs = ctx.ocall("ocall_source", n=n)
    return sum(outs["data"])


def _flip(ctx, n):
    payload = bytes([1] * n)
    _, outs = ctx.ocall("ocall_transform", data=payload, n=n)
    return sum(outs["data"]) + sum(range(n))


def _ocall_out_image():
    from repro.sdk.image import EnclaveImage
    return EnclaveImage.build("ocaller", _OCALL_EDL,
                              {"pull": _pull, "flip": _flip})


_BRANCH_EDL = """
enclave {
    trusted {
        public uint64 call_undeclared();
        public uint64 pass_pointer(uint64 ptr);
        public uint64 log_message([string] bytes msg);
        public uint64 overflow_then_retry(uint64 n, uint64 m);
    };
    untrusted {
        uint64 o_pointer([user_check] bytes ptr);
        uint64 o_log([string] bytes msg);
        uint64 o_pair([in, size=n] bytes a, [in, size=m] bytes b,
                      uint64 n, uint64 m);
    };
};
"""


def _call_undeclared(ctx):
    return ctx.ocall("o_missing")


def _pass_pointer(ctx, ptr):
    return ctx.ocall("o_pointer", ptr=ptr)


def _log_message(ctx, msg):
    return ctx.ocall("o_log", msg=bytes(msg))


def _overflow_then_retry(ctx, n, m):
    # The first buffer fits the OCALL region, the second does not: the
    # failure comes after the cursor has already moved once.
    try:
        ctx.ocall("o_pair", a=bytes(n), b=bytes(m), n=n, m=m)
    except SdkError as exc:
        ctx.globals["overflow"] = str(exc)
    # The same first buffer fits again only if the cursor was restored.
    return ctx.ocall("o_pair", a=bytes([1]) * n, b=b"\x02", n=n, m=1)


class TestOcallBranches:
    """The OCALL parameter kinds and failure paths, one test each."""

    @pytest.fixture
    def handle(self, he_platform):
        from repro.sdk.image import EnclaveImage
        handle = he_platform.load_enclave(EnclaveImage.build(
            "branches", _BRANCH_EDL,
            {"call_undeclared": _call_undeclared,
             "pass_pointer": _pass_pointer, "log_message": _log_message,
             "overflow_then_retry": _overflow_then_retry}))
        yield handle
        handle.destroy()

    def test_undeclared_ocall_raises_edl_error(self, handle):
        from repro.errors import EdlError
        with pytest.raises(EdlError, match="o_missing"):
            handle.ecall("call_undeclared")

    def test_user_check_reaches_impl_as_raw_integer(self, handle):
        seen = []
        handle.register_ocall("o_pointer",
                              lambda ptr: seen.append(ptr) or 7)
        assert handle.ecall("pass_pointer", ptr=0xDEAD_BEEF) == 7
        assert seen == [0xDEAD_BEEF]
        assert type(seen[0]) is int

    def test_string_is_sized_by_its_length(self, handle):
        seen = []
        handle.register_ocall("o_log", lambda msg: seen.append(msg) or
                              len(msg))
        message = b"a message of thirty-one bytes!!"
        assert handle.ecall("log_message", msg=message) == 31
        assert seen == [message]

    def test_overflow_restores_the_ocall_cursor(self, handle):
        region = handle._ocall_limit - handle._ocall_base
        n = region // 2 + 16
        handle.register_ocall("o_pair", lambda a, b, n, m: sum(a) + sum(b))
        assert handle.ecall("overflow_then_retry", n=n, m=region // 2) \
            == n + 2
        assert "overflow on OCALL frame" in handle.ctx.globals["overflow"]
        assert handle._ocall_cursor == handle._ocall_base


class TestCalibratedCosts:
    """Empty edge calls must land exactly on the Table 1 numbers."""

    @pytest.mark.parametrize("mode,expected", [
        (EnclaveMode.GU, 9480), (EnclaveMode.HU, 8440),
        (EnclaveMode.P, 9700),
    ])
    def test_empty_ecall_cost(self, he_platform, mode, expected):
        handle = he_platform.load_enclave(demo_image(mode))
        handle.proxies.add_numbers(a=0, b=0)      # warm the path
        with he_platform.cycles.measure() as span:
            handle.proxies.add_numbers(a=0, b=0)
        assert span.elapsed == expected
        handle.destroy()

    def test_empty_ecall_cost_sgx(self, sgx_platform):
        handle = sgx_platform.load_enclave(demo_image())
        handle.proxies.add_numbers(a=0, b=0)
        with sgx_platform.cycles.measure() as span:
            handle.proxies.add_numbers(a=0, b=0)
        assert span.elapsed == 14432
        handle.destroy()

    @pytest.mark.parametrize("mode,expected", [
        (EnclaveMode.GU, 4920), (EnclaveMode.HU, 4120),
        (EnclaveMode.P, 5260),
    ])
    def test_empty_ocall_cost(self, he_platform, mode, expected):
        handle = he_platform.load_enclave(demo_image(mode))
        handle.register_ocall("ocall_nop", lambda: 0)

        def entry(ctx):
            with he_platform.cycles.measure() as span:
                ctx.ocall("ocall_nop")
            entry.measured = span.elapsed
            return 0

        # Run the OCALL from inside a real ECALL context.
        handle.image.trusted_funcs["add_numbers"] = \
            lambda ctx, a, b: entry(ctx)
        handle.proxies.add_numbers(a=0, b=0)
        assert entry.measured == expected
        handle.destroy()

    def test_empty_ocall_cost_sgx(self, sgx_platform):
        handle = sgx_platform.load_enclave(demo_image())
        handle.register_ocall("ocall_nop", lambda: 0)

        def entry(ctx):
            with sgx_platform.cycles.measure() as span:
                ctx.ocall("ocall_nop")
            entry.measured = span.elapsed
            return 0

        handle.image.trusted_funcs["add_numbers"] = \
            lambda ctx, a, b: entry(ctx)
        handle.proxies.add_numbers(a=0, b=0)
        assert entry.measured == 12432
        handle.destroy()
