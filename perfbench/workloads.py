"""The benchmark's three serving workloads.

Each workload builds a fresh platform in its constructor (the set-up the
benchmark times) through the public surfaces only: ``TeePlatform``,
``EnclaveHandle`` proxies, ``Loopback`` and ``RustMonitor.reserve_region``.
The constructors call ``tick`` during their preload loops, so a
``hostspeed.HostTimer`` can sample the host speed while set-up runs.
``request()`` then runs one closed-loop request, checks the reply, and
returns ``(host ns, ok)`` with the host time read from
``hostspeed.host_ns``.  All inputs come from the seed; the program
sees only the generated bytes.
"""

from __future__ import annotations

import os
import random

from hostspeed import host_ns
from repro.apps.kvserver import (KV_PORT, decode_reply, encode_command,
                                 make_kv_enclave_image)
from repro.apps.webserver import (HTTP_PORT, http_request,
                                  make_http_enclave_image, parse_response)
from repro.apps.ycsb import record_key, workload
from repro.hw.machine import MachineConfig
from repro.hw.phys import PAGE_SIZE
from repro.libos.occlum import register_libos_ocalls
from repro.monitor.enclave import ENCLAVE_BASE_VA
from repro.monitor.structs import EnclaveConfig, EnclaveMode
from repro.platform import TeePlatform
from repro.sdk.image import EnclaveImage

MiB = 1024 * 1024

# Simulated client connections, multiplexed round-robin on one thread.
CLIENTS = min(2, os.cpu_count() or 1)

# A small serving box: boots in milliseconds, and the reservation still
# dwarfs every enclave used here.  The sanitizer is pinned off so the
# environment cannot change what is measured.
SERVING_MACHINE = MachineConfig(phys_size=2048 * MiB, reserved_base=1024 * MiB,
                                reserved_size=768 * MiB, sanitize=False)

# ~14 MB of EPC after the monitor's private memory.
EPC_MACHINE = MachineConfig(phys_size=256 * MiB, reserved_base=128 * MiB,
                            reserved_size=16 * MiB, sanitize=False)


def _no_tick() -> bool:
    return False


class WorkloadError(RuntimeError):
    """Set-up or warm-up got a wrong reply: the run cannot be measured."""


class _SocketWorkload:
    """One request: ``Loopback.send``, serving ECALL, ``Loopback.recv``."""

    def _connect(self, port: int, accept) -> None:
        loopback = self.platform.loopback
        self._clients = [loopback.connect(port) for _ in range(CLIENTS)]
        self._conns = [accept(port=port) for _ in self._clients]
        self._turn = 0

    def _round_trip(self, payload: bytes, serve):
        turn = self._turn
        self._turn = (turn + 1) % len(self._clients)
        client = self._clients[turn]
        loopback = self.platform.loopback
        start = host_ns()
        loopback.send(client, payload, from_client=True)
        served = serve(conn=self._conns[turn])
        reply = loopback.recv(client, from_client=False)
        elapsed = host_ns() - start
        if reply is None or served != len(reply):
            return elapsed, None
        return elapsed, reply


class KvYcsbA(_SocketWorkload):
    """RESP server under the LibOS in an HU enclave, YCSB-A traffic."""

    name = "kv-ycsb-a"
    sim_requests = 2000
    warmup_requests = 500
    VALUE_BYTES = 1024

    def __init__(self, seed: int, *, smoke: bool = False,
                 tick=_no_tick) -> None:
        self.records = 300 if smoke else 10_000   # 10 MB > the 8 MB LLC
        self._rng = random.Random(f"{self.name}:{seed}")
        self.platform = TeePlatform.hyperenclave(SERVING_MACHINE)
        image = make_kv_enclave_image(EnclaveMode.HU, heap_size=256 * MiB,
                                      msbuf_size=512 * 1024)
        self.handle = self.platform.load_enclave(image)
        register_libos_ocalls(self.handle, self.platform.loopback)
        self.handle.proxies.kv_init(port=KV_PORT)
        self._connect(KV_PORT, self.handle.proxies.kv_accept)
        self._shadow: dict[bytes, bytes] = {}
        for index in range(self.records):
            tick()
            if not self._set(record_key(index))[1]:
                raise WorkloadError(f"preload SET {index} failed")
        self._ops = workload("A", self.records, n_ops=1 << 62,
                             seed=self._rng.getrandbits(32))

    def _value(self) -> bytes:
        return self._rng.randbytes(self.VALUE_BYTES)

    def _set(self, key: bytes):
        value = self._value()
        elapsed, reply = self._round_trip(encode_command(b"SET", key, value),
                                          self.handle.proxies.kv_serve)
        ok = reply == b"+OK\r\n"
        if ok:
            self._shadow[key] = value
        return elapsed, ok

    def request(self):
        op = next(self._ops)
        if op.kind != "read":
            return self._set(op.key)
        elapsed, reply = self._round_trip(encode_command(b"GET", op.key),
                                          self.handle.proxies.kv_serve)
        return elapsed, (reply is not None
                         and decode_reply(reply) == self._shadow[op.key])

    def served(self) -> int:
        return self.handle.ctx.globals["kv"].commands_served


class Web16kGu(_SocketWorkload):
    """HTTP server under the LibOS in a GU enclave, one 16 KB document."""

    name = "web-16k-gu"
    sim_requests = 2000
    warmup_requests = 200
    PATH = "/index.html"

    def __init__(self, seed: int, *, smoke: bool = False,
                 tick=_no_tick) -> None:
        self._rng = random.Random(f"{self.name}:{seed}")
        self.platform = TeePlatform.hyperenclave(SERVING_MACHINE)
        image = make_http_enclave_image(EnclaveMode.GU, heap_size=64 * MiB,
                                        msbuf_size=1 * MiB)
        self.handle = self.platform.load_enclave(image)
        register_libos_ocalls(self.handle, self.platform.loopback)
        self.handle.proxies.http_init(port=HTTP_PORT)
        self.document = self._rng.randbytes(16 * 1024)
        path = self.PATH.encode()
        self.handle.proxies.http_load(path=path, plen=len(path),
                                      doc=self.document,
                                      n=len(self.document))
        self._connect(HTTP_PORT, self.handle.proxies.http_accept)
        # Each client keeps one session cookie of seeded length.
        head = http_request(self.PATH)[:-2]
        self._payloads = [
            head + b"Cookie: sid=%s\r\n\r\n"
            % self._rng.randbytes(self._rng.randint(8, 64)).hex().encode()
            for _ in range(CLIENTS)]

    def request(self):
        payload = self._payloads[self._turn]
        elapsed, reply = self._round_trip(payload,
                                          self.handle.proxies.http_serve)
        return elapsed, (reply is not None
                         and parse_response(reply) == (200, self.document))

    def served(self) -> int:
        return self.handle.ctx.globals["http"].requests_served


# -- EPC swap -----------------------------------------------------------------

SWEEP_EDL = """
enclave {
    trusted {
        public uint64 tag_init(uint64 tenant, uint64 nonce,
                               [in, size=n] bytes lines, uint64 n);
        public uint64 sweep(uint64 first, uint64 count);
    };
    untrusted { };
};
"""

WORKING_SET_PAGES = 2048                # 8 MB per tenant, 16 MB together
SWEEP_BASE_VA = ENCLAVE_BASE_VA + 128 * PAGE_SIZE
LINE = 64


def _page_tag(tenant: int, nonce: int, page: int) -> bytes:
    return b"tenant%02d page%06d nonce%016x" % (tenant, page, nonce)


def _t_tag_init(ctx, tenant, nonce, lines, n):
    """Trusted: remember this tenant's tag and each page's record length
    (``lines[page]`` cache lines); no page is tagged yet."""
    ctx.globals["tag"] = (tenant, nonce)
    ctx.globals["lines"] = bytes(lines)
    ctx.globals["tagged"] = bytearray(WORKING_SET_PAGES)
    return 0


def _t_sweep(ctx, first, count):
    """Trusted: touch ``count`` pages from ``first``.

    The first touch of a page writes its tenant tag; every later touch
    reads the page's record (faulting the page back in when it was
    swapped out) and verifies the tag.  Returns the number of pages
    tagged or verified.
    """
    tenant, nonce = ctx.globals["tag"]
    lines = ctx.globals["lines"]
    tagged = ctx.globals["tagged"]
    good = 0
    for i in range(count):
        page = (first + i) % WORKING_SET_PAGES
        va = SWEEP_BASE_VA + page * PAGE_SIZE
        tag = _page_tag(tenant, nonce, page)
        if not tagged[page]:
            ctx.write(va, tag)
            tagged[page] = 1
            good += 1
        elif ctx.read(va, lines[page] * LINE)[:len(tag)] == tag:
            good += 1
    return good


class EpcSwap2t:
    """Two GU tenants thrashing a ~14 MB EPC through ``sweep`` ECALLs."""

    name = "epc-swap-2t"
    sim_requests = 1000
    warmup_requests = 100
    SWEEP_PAGES = 4
    PRELOAD_PAGES = 256

    def __init__(self, seed: int, *, smoke: bool = False,
                 tick=_no_tick) -> None:
        self._rng = random.Random(f"{self.name}:{seed}")
        self.platform = TeePlatform.hyperenclave(EPC_MACHINE)
        self.handles = []
        for tenant in range(2):
            image = EnclaveImage.build(
                f"tenant-{tenant}", SWEEP_EDL,
                {"tag_init": _t_tag_init, "sweep": _t_sweep},
                EnclaveConfig(mode=EnclaveMode.GU, heap_size=16 * MiB,
                              tcs_count=1))
            handle = self.platform.load_enclave(image)
            self.platform.monitor.reserve_region(
                handle.enclave_id, SWEEP_BASE_VA,
                WORKING_SET_PAGES * PAGE_SIZE)
            # Records of 1..32 cache lines: a page's record always covers
            # the same lines, so the LLC never sees a half-cached record.
            lines = bytes(self._rng.randint(1, 32)
                          for _ in range(WORKING_SET_PAGES))
            handle.proxies.tag_init(tenant=tenant,
                                    nonce=self._rng.getrandbits(63),
                                    lines=lines, n=len(lines))
            self.handles.append(handle)
        # Tenant preload: the first touch tags every page of both sets.
        for handle in self.handles:
            for first in range(0, WORKING_SET_PAGES, self.PRELOAD_PAGES):
                tick()
                if handle.proxies.sweep(first=first, count=self.PRELOAD_PAGES
                                        ) != self.PRELOAD_PAGES:
                    raise WorkloadError("tenant preload failed")
        self._cursors = [0] * len(self.handles)
        self._turn = 0

    def request(self):
        turn = self._turn
        self._turn = (turn + 1) % len(self.handles)
        first = self._cursors[turn]
        self._cursors[turn] = (first + self.SWEEP_PAGES) % WORKING_SET_PAGES
        sweep = self.handles[turn].proxies.sweep
        start = host_ns()
        good = sweep(first=first, count=self.SWEEP_PAGES)
        return host_ns() - start, good == self.SWEEP_PAGES

    def served(self) -> None:
        return None


WORKLOADS = {cls.name: cls for cls in (KvYcsbA, Web16kGu, EpcSwap2t)}
