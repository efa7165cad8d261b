"""Edger8r: turn an EDL interface into callable proxies.

The SGX SDK's ``sgx_edger8r`` generates C proxies (untrusted side) and
bridges (trusted side); HyperEnclave modifies it to route buffers through
the marshalling buffer (Sec 5.3).  Here generation produces Python
callables bound to an :class:`~repro.sdk.urts.EnclaveHandle`; the copy
discipline lives in the uRTS/tRTS, driven by the same ``FuncSpec`` the
proxies validate against.
"""

from __future__ import annotations

from repro.errors import SdkError
from repro.sdk.edl import Direction, FuncSpec
from repro.sdk.urts import EnclaveHandle


class Proxies:
    """Generated untrusted proxies: one method per public ECALL."""

    def __init__(self, handle: EnclaveHandle) -> None:
        self._handle = handle
        for spec in handle.image.edl.trusted:
            if spec.public:
                setattr(self, spec.name, _make_proxy(handle, spec))

    def __repr__(self) -> str:
        names = [s.name for s in self._handle.image.edl.trusted if s.public]
        return f"<Proxies {names}>"


def _make_proxy(handle: EnclaveHandle, spec: FuncSpec):
    known = frozenset(p.name for p in spec.plan)
    expected = frozenset(p.name for p in spec.plan
                         if p.kind is not Direction.OUT)

    def proxy(**kwargs):
        if not kwargs.keys() <= known:
            unknown = kwargs.keys() - known
            raise SdkError(f"{spec.name}: unknown arguments {sorted(unknown)}")
        if not kwargs.keys() >= expected:
            missing = expected - kwargs.keys()
            raise SdkError(f"{spec.name}: missing arguments {sorted(missing)}")
        return handle.ecall(spec.name, **kwargs)

    proxy.__name__ = spec.name
    proxy.__doc__ = (f"Generated proxy for ECALL {spec.name!r} "
                     f"({spec.return_type})")
    return proxy


def generate_proxies(handle: EnclaveHandle) -> Proxies:
    """The ``sgx_edger8r`` step, at load time."""
    return Proxies(handle)


# ---------------------------------------------------------------- codegen --

_HEADER_TEMPLATE = '''\
"""Generated by repro.sdk.edger8r — do not edit.

Untrusted proxies for the {name!r} enclave interface.  Each proxy binds
to an EnclaveHandle at import time via ``bind(handle)`` and validates its
arguments before entering the marshalling path.
"""

_HANDLE = None


def bind(handle):
    """Bind the generated proxies to a loaded enclave."""
    global _HANDLE
    _HANDLE = handle


def _require_handle():
    if _HANDLE is None:
        raise RuntimeError("call bind(handle) before using the proxies")
    return _HANDLE

'''

_PROXY_TEMPLATE = '''\

def {name}({params}):
    """Proxy for ECALL {name!r}: {signature}."""
    handle = _require_handle()
{checks}    return handle.ecall({name!r}{call_args})

'''


def generate_source(edl, image_name: str) -> str:
    """Emit Python source for the untrusted proxies of ``edl``.

    The real ``sgx_edger8r`` writes ``*_u.c``/``*_t.c``; this emits the
    Python equivalent of the untrusted half — a standalone module whose
    functions validate arguments and call into a bound EnclaveHandle.
    """
    out = [_HEADER_TEMPLATE.format(name=image_name)]
    for spec in edl.trusted:
        if not spec.public:
            continue
        params = []
        checks = []
        call_args = []
        for p in spec.params:
            if p.is_buffer and p.direction is Direction.OUT:
                continue                       # out buffers are returned
            params.append(p.name)
            call_args.append(f"{p.name}={p.name}")
            if p.is_buffer and p.direction is not Direction.USER_CHECK:
                checks.append(
                    f"    if not isinstance({p.name}, (bytes, bytearray)):\n"
                    f"        raise TypeError("
                    f"'{spec.name}.{p.name}: expected bytes')\n")
            elif not p.is_buffer:
                checks.append(
                    f"    {p.name} = int({p.name})\n")
        signature = ", ".join(
            f"[{p.direction.value}] {p.type} {p.name}" if p.is_buffer
            else f"{p.type} {p.name}" for p in spec.params) or "no args"
        out.append(_PROXY_TEMPLATE.format(
            name=spec.name,
            params=", ".join(f"*, {params[0]}" if i == 0 else param
                             for i, param in enumerate(params)) or "",
            signature=signature,
            checks="".join(checks),
            call_args=("" if not call_args else ", " + ", ".join(call_args)),
        ))
    out.append("\nOCALL_NAMES = %r\n" % sorted(
        s.name for s in edl.untrusted))
    return "".join(out)


def load_generated(source: str):
    """Execute generated proxy source; returns its module namespace."""
    namespace: dict[str, object] = {}
    exec(compile(source, "<edger8r-generated>", "exec"), namespace)
    return namespace
