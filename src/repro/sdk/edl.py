"""EDL (Enclave Definition Language) parser.

A faithful subset of the SGX SDK's EDL grammar:

.. code-block:: text

    enclave {
        trusted {
            public uint64 put([in, size=len] bytes key, uint64 len);
            public uint64 sum([in, count=n] bytes values, uint64 n);
            uint64 internal_handler();            /* private: not callable */
        };
        untrusted {
            uint64 ocall_write([in, size=n] bytes data, uint64 n);
            void ocall_log([string] bytes message);
        };
    };

Types: ``void``, ``uint64``, ``int64``, ``bytes`` (a sized buffer).
Buffer attributes: ``[in]``, ``[out]``, ``[in, out]``, ``[user_check]``,
``[string]``, with ``size=<param|literal>`` / ``count=<param|literal>``.
``user_check`` buffers are passed as raw pointers with **no** copy and no
bounds check — exactly the SGX footgun the paper's marshalling-buffer
design has to accommodate (Sec 5.3).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import EdlError, SdkError

_TOKEN_RE = re.compile(r"""
    (?P<comment>/\*.*?\*/|//[^\n]*) |
    (?P<word>[A-Za-z_][A-Za-z0-9_]*) |
    (?P<number>\d+) |
    (?P<symbol>[{}()\[\];,=*]) |
    (?P<space>\s+) |
    (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

SCALAR_TYPES = {"uint64", "int64"}
ALL_TYPES = SCALAR_TYPES | {"void", "bytes"}


class Direction(enum.Enum):
    """How a buffer parameter crosses the boundary."""

    NONE = "none"            # scalar
    IN = "in"                # copied into the enclave
    OUT = "out"              # copied back out
    INOUT = "inout"          # both
    USER_CHECK = "user_check"  # raw pointer, no copy, no checks


@dataclass(frozen=True)
class ParamSpec:
    """One parameter of an edge function."""

    name: str
    type: str
    direction: Direction = Direction.NONE
    size_expr: str | int | None = None   # parameter name or literal
    is_string: bool = False

    @property
    def is_buffer(self) -> bool:
        return self.type == "bytes"


class ParamPlan(NamedTuple):
    """How one parameter crosses the boundary, resolved once per EDL.

    ``kind`` is the parameter's direction, ``Direction.NONE`` for a
    scalar.  ``copies_in``/``copies_out`` say which way a buffer is
    copied (neither for scalars and ``[user_check]`` pointers).  A copied
    buffer is sized by the ``size`` literal, else by the ``size_param``
    argument, else (a ``[string]``) by the argument's length.
    """

    name: str
    kind: Direction
    copies_in: bool
    copies_out: bool
    size: int | None
    size_param: str | None

    def size_of(self, func: str, kwargs) -> int:
        """The byte size of this buffer in a call with ``kwargs``."""
        if self.size is not None:
            return self.size
        if self.size_param is not None:
            return int(kwargs[self.size_param])
        value = kwargs.get(self.name)
        if value is not None:
            return len(value)
        raise SdkError(f"{func}.{self.name}: cannot determine size")


def _plan(param: ParamSpec) -> ParamPlan:
    kind = param.direction if param.is_buffer else Direction.NONE
    size_expr = param.size_expr
    return ParamPlan(
        name=param.name, kind=kind,
        copies_in=kind in (Direction.IN, Direction.INOUT),
        copies_out=kind in (Direction.OUT, Direction.INOUT),
        size=size_expr if isinstance(size_expr, int) else None,
        size_param=size_expr if isinstance(size_expr, str) else None)


@dataclass(frozen=True)
class FuncSpec:
    """One trusted or untrusted function.

    ``plan`` holds one :class:`ParamPlan` per parameter, in order: what
    the uRTS walks on every edge call.
    """

    name: str
    return_type: str
    params: tuple[ParamSpec, ...]
    public: bool = False
    plan: tuple[ParamPlan, ...] = field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan",
                           tuple(_plan(p) for p in self.params))

    def param(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise EdlError(f"{self.name}: no parameter named {name!r}")


@dataclass(frozen=True)
class EdlInterface:
    """The parsed enclave interface."""

    trusted: tuple[FuncSpec, ...]
    untrusted: tuple[FuncSpec, ...]
    _trusted: dict[str, FuncSpec] = field(init=False, repr=False,
                                          compare=False)
    _untrusted: dict[str, FuncSpec] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        # parse_edl rejects duplicate names, so each name keys one spec.
        object.__setattr__(self, "_trusted",
                           {f.name: f for f in self.trusted})
        object.__setattr__(self, "_untrusted",
                           {f.name: f for f in self.untrusted})

    def trusted_by_name(self, name: str) -> FuncSpec:
        spec = self._trusted.get(name)
        if spec is None:
            raise EdlError(f"no trusted function {name!r}")
        return spec

    def untrusted_by_name(self, name: str) -> FuncSpec:
        spec = self._untrusted.get(name)
        if spec is None:
            raise EdlError(f"no untrusted function {name!r}")
        return spec


def _tokenize(text: str) -> list[str]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind in ("space", "comment"):
            continue
        if kind == "bad":
            raise EdlError(f"unexpected character {match.group()!r}")
        tokens.append(match.group())
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise EdlError("unexpected end of EDL")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise EdlError(f"expected {token!r}, got {got!r}")

    # -- grammar ---------------------------------------------------------------

    def parse(self) -> EdlInterface:
        self.expect("enclave")
        self.expect("{")
        trusted: list[FuncSpec] = []
        untrusted: list[FuncSpec] = []
        while self.peek() != "}":
            section = self.next()
            if section not in ("trusted", "untrusted"):
                raise EdlError(f"expected trusted/untrusted, got {section!r}")
            self.expect("{")
            funcs = trusted if section == "trusted" else untrusted
            while self.peek() != "}":
                funcs.append(self._function(in_trusted=(section == "trusted")))
            self.expect("}")
            self.expect(";")
        self.expect("}")
        self.expect(";")
        if self.peek() is not None:
            raise EdlError(f"trailing tokens after enclave block: "
                           f"{self.peek()!r}")
        interface = EdlInterface(tuple(trusted), tuple(untrusted))
        _validate(interface)
        return interface

    def _function(self, *, in_trusted: bool) -> FuncSpec:
        public = False
        if self.peek() == "public":
            if not in_trusted:
                raise EdlError("'public' only applies to trusted functions")
            public = True
            self.next()
        return_type = self.next()
        if return_type not in SCALAR_TYPES | {"void"}:
            raise EdlError(f"bad return type {return_type!r}")
        name = self.next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise EdlError(f"bad function name {name!r}")
        self.expect("(")
        params: list[ParamSpec] = []
        if self.peek() != ")":
            while True:
                params.append(self._param())
                if self.peek() == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        self.expect(";")
        return FuncSpec(name=name, return_type=return_type,
                        params=tuple(params), public=public)

    def _param(self) -> ParamSpec:
        direction = Direction.NONE
        size_expr: str | int | None = None
        is_string = False
        if self.peek() == "[":
            self.next()
            attrs: list[str] = []
            while self.peek() != "]":
                attr = self.next()
                if attr in ("size", "count"):
                    self.expect("=")
                    value = self.next()
                    size_expr = int(value) if value.isdigit() else value
                elif attr == ",":
                    continue
                else:
                    attrs.append(attr)
            self.expect("]")
            direction, is_string = _resolve_attrs(attrs)
        param_type = self.next()
        if param_type not in ALL_TYPES - {"void"}:
            raise EdlError(f"bad parameter type {param_type!r}")
        name = self.next()
        return ParamSpec(name=name, type=param_type, direction=direction,
                         size_expr=size_expr, is_string=is_string)


def _resolve_attrs(attrs: list[str]) -> tuple[Direction, bool]:
    is_string = "string" in attrs
    flags = set(attrs) - {"string"}
    mapping = {
        frozenset(): Direction.IN if is_string else Direction.NONE,
        frozenset({"in"}): Direction.IN,
        frozenset({"out"}): Direction.OUT,
        frozenset({"in", "out"}): Direction.INOUT,
        frozenset({"user_check"}): Direction.USER_CHECK,
    }
    key = frozenset(flags)
    if key not in mapping:
        raise EdlError(f"unsupported attribute combination {sorted(attrs)}")
    return mapping[key], is_string


def _validate(interface: EdlInterface) -> None:
    for funcs in (interface.trusted, interface.untrusted):
        seen: set[str] = set()
        for func in funcs:
            if func.name in seen:
                raise EdlError(f"duplicate function {func.name!r}")
            seen.add(func.name)
            param_names = {p.name for p in func.params}
            if len(param_names) != len(func.params):
                raise EdlError(f"{func.name}: duplicate parameter names")
            for p in func.params:
                if p.is_buffer:
                    if p.direction is Direction.NONE:
                        raise EdlError(
                            f"{func.name}.{p.name}: buffers need a "
                            f"direction attribute")
                    if (p.size_expr is None and not p.is_string
                            and p.direction is not Direction.USER_CHECK):
                        raise EdlError(
                            f"{func.name}.{p.name}: sized buffers need "
                            f"size=/count=")
                    if isinstance(p.size_expr, str) and \
                            p.size_expr not in param_names:
                        raise EdlError(
                            f"{func.name}.{p.name}: size parameter "
                            f"{p.size_expr!r} not found")
                elif p.direction is not Direction.NONE or p.is_string:
                    raise EdlError(
                        f"{func.name}.{p.name}: attributes only apply to "
                        f"buffers")


def parse_edl(text: str) -> EdlInterface:
    """Parse EDL source into an :class:`EdlInterface`."""
    return _Parser(_tokenize(text)).parse()
