"""The no-protection LibOS: plain syscalls into the primary OS.

Used by the baseline runs ("the same code compiled under the SDK
simulation mode", Sec 7.4): identical server logic, but every file and
socket operation is a normal syscall with no world switches.
"""

from __future__ import annotations

from repro.errors import SdkError
from repro.libos.base import Libos
from repro.osim.kernel import Kernel
from repro.osim.net import Loopback
from repro.osim.vfs import Vfs


class NativeLibos(Libos):
    """Syscall-backed LibOS for baseline servers."""

    def __init__(self, kernel: Kernel, loopback: Loopback, vfs: Vfs) -> None:
        self.kernel = kernel
        self.loopback = loopback
        self.vfs = vfs
        self._conns: dict[int, object] = {}
        self._next_id = 1

    # -- filesystem ------------------------------------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        self.kernel.charge_syscall(400)
        self.vfs.write_file(path, data)

    def read_file(self, path: str) -> bytes:
        self.kernel.charge_syscall(400)
        return self.vfs.read_file(path)

    def stat(self, path: str) -> int:
        self.kernel.charge_syscall(250)
        return self.vfs.stat(path)

    def exists(self, path: str) -> bool:
        self.kernel.charge_syscall(250)
        return self.vfs.exists(path)

    # -- sockets -----------------------------------------------------------------

    def listen(self, port: int) -> None:
        self.kernel.charge_syscall(600)
        self.loopback.listen(port)

    def accept(self, port: int) -> int:
        self.kernel.charge_syscall(800)
        conn = self.loopback.accept(port)
        conn_id = self._next_id
        self._next_id += 1
        self._conns[conn_id] = conn
        return conn_id

    def connection(self, conn_id: int):
        connection = self._conns.get(conn_id)
        if connection is None:
            raise SdkError(f"unknown connection {conn_id}")
        return connection

    def recv(self, conn: int) -> bytes | None:
        self.kernel.charge_syscall(600)
        return self.loopback.recv(self.connection(conn), from_client=True)

    def send(self, conn: int, data: bytes) -> None:
        self.kernel.charge_syscall(600)
        self.loopback.send(self.connection(conn), data, from_client=False)

    def close(self, conn: int) -> None:
        self.kernel.charge_syscall(400)
        connection = self._conns.pop(conn, None)
        if connection is not None:
            connection.close()
