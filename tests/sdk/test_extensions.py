"""Tests for the extension features: switchless OCALLs and the P-Enclave
interrupt-anomaly detector."""

import pytest

from repro.errors import SdkError
from repro.hw import costs
from repro.monitor.structs import EnclaveMode
from repro.platform import TeePlatform

from .conftest import SMALL, demo_image


@pytest.fixture(scope="module")
def platform():
    return TeePlatform.hyperenclave(SMALL)


class TestSwitchlessOcalls:
    @pytest.fixture
    def handle(self, platform):
        h = platform.load_enclave(demo_image())
        h.register_ocall("ocall_sink", lambda data, n: sum(data) & 0xFFFF)
        h.register_ocall("ocall_nop", lambda: 0)
        yield h
        h.destroy()

    def test_results_identical(self, handle):
        regular = handle.proxies.echo_through_ocall(data=b"\x02" * 4, n=4)
        handle.enable_switchless()
        switchless = handle.proxies.echo_through_ocall(data=b"\x02" * 4,
                                                       n=4)
        assert regular == switchless

    def test_switchless_is_much_cheaper(self, platform, handle):
        measured = {}

        def entry(ctx, a, b):
            with platform.cycles.measure() as span:
                ctx.ocall("ocall_nop")
            measured["cycles"] = span.elapsed
            return 0

        handle.image.trusted_funcs["add_numbers"] = entry
        handle.proxies.add_numbers(a=0, b=0)
        regular = measured["cycles"]
        assert regular == costs.ocall_expected("gu")

        handle.enable_switchless()
        handle.proxies.add_numbers(a=0, b=0)
        switchless = measured["cycles"]
        expected = (costs.SWITCHLESS_ENQUEUE_CYCLES
                    + costs.SWITCHLESS_POLL_INTERVAL_CYCLES / 2
                    + costs.SWITCHLESS_COMPLETE_CYCLES)
        assert switchless == expected
        assert switchless < regular / 5

    def test_no_world_switch_in_switchless_mode(self, handle):
        handle.enable_switchless()
        exits_before = handle.world.exits
        handle.proxies.echo_through_ocall(data=b"\x01", n=1)
        # Only the wrapping ECALL's exit, not the OCALL's.
        assert handle.world.exits == exits_before + 1

    def test_worker_cycles_accounted(self, handle):
        handle.enable_switchless()

        def busy_impl(data, n):
            handle.machine.cycles.charge(5000, "untrusted-work")
            return 0

        handle.register_ocall("ocall_sink", busy_impl)
        handle.proxies.echo_through_ocall(data=b"\x01", n=1)
        assert handle.switchless_calls == 1
        assert handle.switchless_worker_cycles >= 5000

    def test_worker_cycles_grow_with_switchless_ocalls(self, platform,
                                                       handle):
        # The worker spins for as long as switchless mode is on: every
        # machine cycle since enable_switchless, once per worker.
        handle.enable_switchless(workers=2)
        start = platform.cycles.total
        seen = [handle.switchless_worker_cycles]
        for _ in range(3):
            handle.proxies.echo_through_ocall(data=b"\x01", n=1)
            assert handle.switchless_worker_cycles == \
                2 * (platform.cycles.total - start)
            seen.append(handle.switchless_worker_cycles)
        assert handle.switchless_calls == 3
        assert seen[0] == 0 and seen == sorted(set(seen))
        # Off, the worker stops: the figure keeps what it burned.
        handle.disable_switchless()
        handle.proxies.echo_through_ocall(data=b"\x01", n=1)
        assert handle.switchless_worker_cycles == seen[-1]
        # So it does when the enclave goes away with switchless on.
        handle.enable_switchless()
        handle.destroy()
        burned = handle.switchless_worker_cycles
        platform.cycles.charge(1000, "syscall")
        assert handle.switchless_worker_cycles == burned

    def test_disable_restores_world_switches(self, handle):
        handle.enable_switchless()
        handle.disable_switchless()
        exits_before = handle.world.exits
        handle.proxies.echo_through_ocall(data=b"\x01", n=1)
        assert handle.world.exits == exits_before + 2   # ECALL + OCALL

    def test_needs_a_worker(self, handle):
        with pytest.raises(SdkError):
            handle.enable_switchless(workers=0)


class TestInterruptMonitor:
    def _p_handle(self, platform):
        return platform.load_enclave(demo_image(EnclaveMode.P))

    def test_requires_p_enclave(self, platform):
        handle = platform.load_enclave(demo_image(EnclaveMode.GU))
        with pytest.raises(SdkError):
            handle.ctx.enable_interrupt_monitor()
        handle.destroy()

    def test_benign_rate_stays_in_enclave(self, platform):
        handle = self._p_handle(platform)
        ctx = handle.ctx
        ctx.enable_interrupt_monitor(window_cycles=1_000_000,
                                     max_per_window=32)
        for _ in range(20):
            platform.machine.cycles.charge(100_000, "compute")  # spread out
            assert ctx.deliver_interrupt(32)
        assert not ctx.interrupt_anomaly
        handle.destroy()

    def test_interrupt_storm_detected_and_rerouted(self, platform):
        """An SGX-Step-style storm (interrupt every few hundred cycles)
        trips the detector; later interrupts go to the primary OS."""
        handle = self._p_handle(platform)
        ctx = handle.ctx
        ctx.enable_interrupt_monitor(window_cycles=1_000_000,
                                     max_per_window=32)
        delivered_in_enclave = 0
        for _ in range(50):
            platform.machine.cycles.charge(500, "compute")
            if ctx.deliver_interrupt(32):
                delivered_in_enclave += 1
        assert ctx.interrupt_anomaly
        assert delivered_in_enclave <= 33
        assert not handle.enclave.whitelisted_vectors   # rerouted
        handle.destroy()

    def test_unarmed_monitor_rejects_delivery(self, platform):
        handle = self._p_handle(platform)
        with pytest.raises(SdkError):
            handle.ctx.deliver_interrupt(32)
        handle.destroy()

    def test_old_arrivals_age_out(self, platform):
        handle = self._p_handle(platform)
        ctx = handle.ctx
        ctx.enable_interrupt_monitor(window_cycles=10_000,
                                     max_per_window=5)
        # Five quick interrupts, then a long gap, then five more: the
        # window must have slid, so no anomaly.
        for _ in range(5):
            platform.machine.cycles.charge(100, "compute")
            ctx.deliver_interrupt(32)
        platform.machine.cycles.charge(50_000, "compute")
        for _ in range(5):
            platform.machine.cycles.charge(100, "compute")
            ctx.deliver_interrupt(32)
        assert not ctx.interrupt_anomaly
        handle.destroy()
