"""End-to-end tests for the HTTP and RESP servers, native and in-enclave."""

import pytest

from repro.analysis.critpath import critpath_class
from repro.apps.kvserver import (KV_PORT, RespServer, decode_reply,
                                 encode_command, make_kv_enclave_image)
from repro.apps.webserver import (HTTP_PORT, HttpServer, http_request,
                                  make_http_enclave_image, parse_response)
from repro.libos.native import NativeLibos
from repro.libos.occlum import register_libos_ocalls
from repro.monitor.structs import EnclaveMode
from repro.platform import TeePlatform
from repro.telemetry import subsystem_for_category


# ------------------------------------------------------------------ native --

@pytest.fixture
def native():
    platform = TeePlatform.native()
    libos = NativeLibos(platform.kernel, platform.loopback, platform.os_vfs)
    return platform, libos


class TestHttpNative:
    def test_serves_a_document(self, native):
        platform, libos = native
        ctx = platform.native_context()
        server = HttpServer(libos, ctx.compute)
        server.load_document("/index.html", b"<html>hello</html>")
        client = platform.loopback.connect(HTTP_PORT)
        conn = server.accept()
        platform.loopback.send(client, http_request("/index.html"),
                               from_client=True)
        server.handle_request(conn)
        status, body = parse_response(
            platform.loopback.recv(client, from_client=False))
        assert status == 200
        assert body == b"<html>hello</html>"

    def test_404(self, native):
        platform, libos = native
        server = HttpServer(libos, platform.native_context().compute)
        client = platform.loopback.connect(HTTP_PORT)
        conn = server.accept()
        platform.loopback.send(client, http_request("/missing"),
                               from_client=True)
        server.handle_request(conn)
        status, _ = parse_response(
            platform.loopback.recv(client, from_client=False))
        assert status == 404
        assert server.errors == 1

    def test_400_on_garbage(self, native):
        platform, libos = native
        server = HttpServer(libos, platform.native_context().compute)
        client = platform.loopback.connect(HTTP_PORT)
        conn = server.accept()
        platform.loopback.send(client, b"NOT HTTP AT ALL",
                               from_client=True)
        server.handle_request(conn)
        status, _ = parse_response(
            platform.loopback.recv(client, from_client=False))
        assert status == 400

    def test_idle_connection_returns_zero(self, native):
        platform, libos = native
        server = HttpServer(libos, platform.native_context().compute)
        platform.loopback.connect(HTTP_PORT)
        conn = server.accept()
        assert server.handle_request(conn) == 0

    def test_keepalive_multiple_requests(self, native):
        platform, libos = native
        server = HttpServer(libos, platform.native_context().compute)
        server.load_document("/a", b"A")
        client = platform.loopback.connect(HTTP_PORT)
        conn = server.accept()
        for _ in range(3):
            platform.loopback.send(client, http_request("/a"),
                                   from_client=True)
            server.handle_request(conn)
            status, body = parse_response(
                platform.loopback.recv(client, from_client=False))
            assert (status, body) == (200, b"A")
        assert server.requests_served == 3


class TestRespNative:
    def test_set_get(self, native):
        platform, libos = native
        ctx = platform.native_context()
        server = RespServer(libos, ctx)
        client = platform.loopback.connect(KV_PORT)
        conn = server.accept()

        def roundtrip(*parts):
            platform.loopback.send(client, encode_command(*parts),
                                   from_client=True)
            server.handle_command(conn)
            return decode_reply(
                platform.loopback.recv(client, from_client=False))

        assert roundtrip(b"SET", b"k", b"v") == b"OK"
        assert roundtrip(b"GET", b"k") == b"v"
        assert roundtrip(b"GET", b"missing") is None
        assert roundtrip(b"DEL", b"k") == 1
        assert roundtrip(b"GET", b"k") is None
        assert roundtrip(b"INCR", b"counter") == 1
        assert roundtrip(b"INCR", b"counter") == 2
        assert roundtrip(b"PING") == b"PONG"

    def test_bad_command_is_error(self, native):
        platform, libos = native
        server = RespServer(libos, platform.native_context())
        client = platform.loopback.connect(KV_PORT)
        conn = server.accept()
        platform.loopback.send(client, encode_command(b"EXPLODE"),
                               from_client=True)
        server.handle_command(conn)
        with pytest.raises(ValueError):
            decode_reply(platform.loopback.recv(client, from_client=False))

    def test_resp_encoding_roundtrip(self):
        assert encode_command(b"GET", b"k") == b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
        assert decode_reply(b"$5\r\nhello\r\n") == b"hello"
        assert decode_reply(b":42\r\n") == 42


# ------------------------------------------------------------------ enclave --

def assert_every_category_declared(platform):
    """No cycle charged in the flow folds into the "other" catch-all."""
    undeclared = [category for category in platform.machine.cycles.by_category
                  if subsystem_for_category(category) == "other"
                  or critpath_class(category) == "other"]
    assert undeclared == []


class TestHttpInEnclave:
    @pytest.mark.parametrize("mode", [EnclaveMode.GU, EnclaveMode.HU])
    def test_full_flow(self, mode):
        platform = TeePlatform.hyperenclave()
        image = make_http_enclave_image(mode, heap_size=8 * 1024 * 1024)
        handle = platform.load_enclave(image)
        register_libos_ocalls(handle, platform.loopback)

        handle.proxies.http_init(port=HTTP_PORT)
        handle.proxies.http_load(path=b"/index.html", plen=11,
                                 doc=b"enclave doc", n=11)
        client = platform.loopback.connect(HTTP_PORT)
        conn = handle.proxies.http_accept(port=HTTP_PORT)
        platform.loopback.send(client, http_request("/index.html"),
                               from_client=True)
        size = handle.proxies.http_serve(conn=conn)
        assert size > 0
        status, body = parse_response(
            platform.loopback.recv(client, from_client=False))
        assert status == 200
        assert body == b"enclave doc"
        assert_every_category_declared(platform)
        handle.destroy()


class TestRespInEnclave:
    def test_full_flow_sgx_and_hyperenclave(self):
        for factory in (TeePlatform.hyperenclave, TeePlatform.intel_sgx):
            platform = factory()
            mode = (EnclaveMode.SGX if platform.kind == "sgx"
                    else EnclaveMode.GU)
            image = make_kv_enclave_image(mode, heap_size=8 * 1024 * 1024)
            handle = platform.load_enclave(image)
            register_libos_ocalls(handle, platform.loopback)

            handle.proxies.kv_init(port=KV_PORT)
            client = platform.loopback.connect(KV_PORT)
            conn = handle.proxies.kv_accept(port=KV_PORT)

            platform.loopback.send(client, encode_command(b"SET", b"k",
                                                          b"value"),
                                   from_client=True)
            handle.proxies.kv_serve(conn=conn)
            assert decode_reply(platform.loopback.recv(
                client, from_client=False)) == b"OK"

            platform.loopback.send(client, encode_command(b"GET", b"k"),
                                   from_client=True)
            handle.proxies.kv_serve(conn=conn)
            assert decode_reply(platform.loopback.recv(
                client, from_client=False)) == b"value"
            assert_every_category_declared(platform)
            handle.destroy()
