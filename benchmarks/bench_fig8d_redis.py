"""Figure 8d: Redis (our RESP server under the LibOS) latency/throughput.

The paper loads 50,000 records (~50 MB), then drives YCSB-A from 20
clients at rising request frequencies, plotting latency against
throughput.  Paper shape: the maximum throughput of HU-Enclave, GU-Enclave
and SGX reach about 89%, 72% and 48% of the baseline respectively.

We measure the per-operation service time on each platform (including
edge calls, in-enclave memory effects, and per-packet AEXes), then sweep
offered load through an M/M/1 queue to produce the latency-throughput
curves; maximum throughput is 1/service-time.
"""

from __future__ import annotations

import random

from repro.apps.driver import aex_roundtrip_cycles, OS_INTERRUPT_CYCLES, \
    latency_throughput_curve
from repro.apps.kvserver import (KV_PORT, RespServer, encode_command,
                                 make_kv_enclave_image)
from repro.apps.ycsb import record_key, workload_a
from repro.libos.native import NativeLibos
from repro.libos.occlum import register_libos_ocalls
from repro.monitor.structs import EnclaveMode
from repro.platform import TeePlatform

from .conftest import BENCH_MACHINE

N_RECORDS = 20_000
VALUE_SIZE = 1024              # ~20 MB dataset (scaled from the paper's 50)
N_CLIENTS = 20
OPS = 2_000
INTERRUPTS_PER_OP = 2          # request packet + response packet


def _load_commands():
    rng = random.Random(11)
    for i in range(N_RECORDS):
        yield encode_command(b"SET", record_key(i),
                             bytes([rng.randrange(256)]) * VALUE_SIZE)


def _op_commands():
    for op in workload_a(N_RECORDS, OPS, value_size=VALUE_SIZE, seed=4):
        if op.kind == "read":
            yield encode_command(b"GET", op.key)
        else:
            yield encode_command(b"SET", op.key, op.value)


def _measure_native() -> float:
    platform = TeePlatform.native(BENCH_MACHINE)
    libos = NativeLibos(platform.kernel, platform.loopback, platform.os_vfs)
    ctx = platform.native_context()
    server = RespServer(libos, ctx)
    clients = [platform.loopback.connect(KV_PORT) for _ in range(N_CLIENTS)]
    conns = [server.accept() for _ in clients]
    machine = platform.machine

    def run(commands, measure):
        total = 0.0
        for i, command in enumerate(commands):
            client = clients[i % N_CLIENTS]
            platform.loopback.send(client, command, from_client=True)
            with machine.cycles.measure() as span:
                server.handle_command(conns[i % N_CLIENTS])
                machine.cycles.charge(
                    INTERRUPTS_PER_OP * OS_INTERRUPT_CYCLES, "interrupt")
            platform.loopback.recv(client, from_client=False)
            if measure:
                total += span.elapsed
        return total

    run(_load_commands(), measure=False)
    return run(_op_commands(), measure=True) / OPS


def _measure_enclave(mode: EnclaveMode) -> float:
    if mode is EnclaveMode.SGX:
        platform = TeePlatform.intel_sgx(BENCH_MACHINE)
    else:
        platform = TeePlatform.hyperenclave(BENCH_MACHINE)
    image = make_kv_enclave_image(mode, heap_size=256 * 1024 * 1024,
                                  msbuf_size=512 * 1024)
    handle = platform.load_enclave(image)
    register_libos_ocalls(handle, platform.loopback)
    handle.proxies.kv_init(port=KV_PORT)
    clients = [platform.loopback.connect(KV_PORT) for _ in range(N_CLIENTS)]
    conns = [handle.proxies.kv_accept(port=KV_PORT) for _ in clients]
    machine = platform.machine
    aex_cost = aex_roundtrip_cycles(mode.value)

    def run(commands, measure):
        total = 0.0
        for i, command in enumerate(commands):
            client = clients[i % N_CLIENTS]
            platform.loopback.send(client, command, from_client=True)
            with machine.cycles.measure() as span:
                handle.proxies.kv_serve(conn=conns[i % N_CLIENTS])
                machine.cycles.charge(INTERRUPTS_PER_OP * aex_cost,
                                      f"aex-interrupt:{mode.value}")
            platform.loopback.recv(client, from_client=False)
            if measure:
                total += span.elapsed
        return total

    run(_load_commands(), measure=False)
    mean = run(_op_commands(), measure=True) / OPS
    handle.destroy()
    return mean


def run_experiment():
    service = {"baseline": _measure_native(),
               "HU-Enclave": _measure_enclave(EnclaveMode.HU),
               "GU-Enclave": _measure_enclave(EnclaveMode.GU),
               "SGX": _measure_enclave(EnclaveMode.SGX)}
    curves = {name: latency_throughput_curve(s, points=10)
              for name, s in service.items()}
    return service, curves


def check(figures) -> None:
    """Figure 8d's claims over the artifact's figures."""
    rel = figures["relative_max_throughput"]
    # Paper: HU 89%, GU 72%, SGX 48% of baseline max throughput.
    assert rel["HU-Enclave"] > rel["GU-Enclave"] > rel["SGX"]
    assert 0.75 < rel["HU-Enclave"] < 0.97
    assert 0.60 < rel["GU-Enclave"] < 0.90
    assert 0.35 < rel["SGX"] < 0.70
    # Latency curves rise with load on every platform.
    for name, lats in figures["latency"].items():
        assert lats == sorted(lats), name
