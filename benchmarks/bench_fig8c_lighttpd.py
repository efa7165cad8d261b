"""Figure 8c: Lighttpd (our HTTP server under the LibOS) throughput.

100 concurrent clients fetch pages of various sizes over the loopback
(ab-style).  Paper shape: HU-Enclave delivers 81~88% of the baseline,
GU-Enclave 69~78%, SGX 51~63%; all ratios improve as pages grow (the
fixed per-request world-switch costs amortize).

Each request costs the enclave one ECALL plus recv/send OCALLs, and the
NIC raises interrupts per packet, each forcing an AEX round trip whose
cost depends on the operation mode — that spread is the figure.
"""

from __future__ import annotations

from repro.apps.driver import aex_roundtrip_cycles, OS_INTERRUPT_CYCLES
from repro.apps.webserver import (HTTP_PORT, HttpServer, http_request,
                                  make_http_enclave_image)
from repro.libos.native import NativeLibos
from repro.libos.occlum import register_libos_ocalls
from repro.monitor.structs import EnclaveMode
from repro.platform import TeePlatform

from .conftest import BENCH_MACHINE

PAGE_SIZES = [1024, 2048, 4096, 8192, 16384]
N_CLIENTS = 100
REQUESTS = 150
# One NIC interrupt per MTU-sized network packet.
PACKET_BYTES = 1500


def _interrupts_for(response_size: int) -> int:
    return 1 + (response_size + PACKET_BYTES - 1) // PACKET_BYTES


def _document(size: int) -> bytes:
    return (b"<html>" + b"x" * (size - 13) + b"</html>")[:size]


def _measure_native(page_size: int) -> float:
    platform = TeePlatform.native(BENCH_MACHINE)
    libos = NativeLibos(platform.kernel, platform.loopback, platform.os_vfs)
    ctx = platform.native_context()
    server = HttpServer(libos, ctx.compute)
    server.load_document("/page.html", _document(page_size))
    clients = [platform.loopback.connect(HTTP_PORT)
               for _ in range(N_CLIENTS)]
    conns = [server.accept() for _ in clients]
    machine = platform.machine
    request = http_request("/page.html")

    with machine.cycles.measure() as span:
        for i in range(REQUESTS):
            client = clients[i % N_CLIENTS]
            platform.loopback.send(client, request, from_client=True)
            size = server.handle_request(conns[i % N_CLIENTS])
            machine.cycles.charge(
                _interrupts_for(size) * OS_INTERRUPT_CYCLES, "interrupt")
            platform.loopback.recv(client, from_client=False)
    return span.elapsed / REQUESTS


def _measure_enclave(mode: EnclaveMode, page_size: int) -> float:
    if mode is EnclaveMode.SGX:
        platform = TeePlatform.intel_sgx(BENCH_MACHINE)
    else:
        platform = TeePlatform.hyperenclave(BENCH_MACHINE)
    image = make_http_enclave_image(mode, heap_size=64 * 1024 * 1024,
                                    msbuf_size=1024 * 1024)
    handle = platform.load_enclave(image)
    register_libos_ocalls(handle, platform.loopback)
    handle.proxies.http_init(port=HTTP_PORT)
    doc = _document(page_size)
    handle.proxies.http_load(path=b"/page.html", plen=10, doc=doc,
                             n=len(doc))
    clients = [platform.loopback.connect(HTTP_PORT)
               for _ in range(N_CLIENTS)]
    conns = [handle.proxies.http_accept(port=HTTP_PORT) for _ in clients]
    machine = platform.machine
    request = http_request("/page.html")
    aex_cost = aex_roundtrip_cycles(mode.value)

    with machine.cycles.measure() as span:
        for i in range(REQUESTS):
            client = clients[i % N_CLIENTS]
            platform.loopback.send(client, request, from_client=True)
            size = handle.proxies.http_serve(conn=conns[i % N_CLIENTS])
            # NIC interrupts land while the enclave serves: AEX round trips.
            machine.cycles.charge(_interrupts_for(size) * aex_cost,
                                  f"aex-interrupt:{mode.value}")
            platform.loopback.recv(client, from_client=False)
    handle.destroy()
    return span.elapsed / REQUESTS


def run_experiment():
    results = {"HU-Enclave": [], "GU-Enclave": [], "SGX": []}
    for page_size in PAGE_SIZES:
        native = _measure_native(page_size)
        results["HU-Enclave"].append(
            native / _measure_enclave(EnclaveMode.HU, page_size))
        results["GU-Enclave"].append(
            native / _measure_enclave(EnclaveMode.GU, page_size))
        results["SGX"].append(
            native / _measure_enclave(EnclaveMode.SGX, page_size))
    return results


def check(figures) -> None:
    """Figure 8c's claims over the artifact's figures."""
    results = figures
    # Mode ordering at every size: HU > GU > SGX (the paper's spread).
    for i in range(len(PAGE_SIZES)):
        assert results["HU-Enclave"][i] > results["GU-Enclave"][i] \
            > results["SGX"][i], i

    # Paper bands: HU 81~88%, GU 69~78%, SGX 51~63%.
    assert 0.72 <= min(results["HU-Enclave"]) and \
        max(results["HU-Enclave"]) <= 0.95
    assert 0.62 <= min(results["GU-Enclave"]) and \
        max(results["GU-Enclave"]) <= 0.90
    assert 0.45 <= min(results["SGX"]) and max(results["SGX"]) <= 0.75
    # The HU-vs-SGX spread is the figure's headline.
    for hu, sgx in zip(results["HU-Enclave"], results["SGX"]):
        assert hu - sgx > 0.12
