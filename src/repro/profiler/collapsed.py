"""Collapsed-stack output: the format flamegraph tooling eats.

One line per unique stack, semicolon-joined frames, a space, and the
integer self-cycle count::

    table1;sdk.ecall;world.eenter 184320

That is exactly the format of Brendan Gregg's ``flamegraph.pl`` and of
speedscope / inferno / d3-flame-graph importers, so a profile from any
benchmark run loads in standard tooling unchanged.  Counts are *self*
cycles — flamegraph widths then show inclusive cycles per frame, which
is the invariant the exact profiler guarantees.
"""

from __future__ import annotations

import pathlib

from repro.profiler.core import validate_profile


def collapsed_lines(document: dict) -> list[str]:
    """Render a profile document as collapsed-stack lines.

    Every stack is rooted at its machine label, so a multi-machine run
    shows one tower per machine.
    """
    validate_profile(document)
    lines: list[str] = []
    for snap in document["machines"]:
        label = snap["label"].replace(";", "_").replace(" ", "_")
        for frame in snap["frames"]:
            if frame["self_cycles"] <= 0:
                continue
            stack = ";".join([label] + frame["stack"])
            lines.append(f"{stack} {int(frame['self_cycles'])}")
    return lines


def write_collapsed(path: str | pathlib.Path, document: dict
                    ) -> pathlib.Path:
    """Write the collapsed-stack file; returns the path."""
    path = pathlib.Path(path)
    lines = collapsed_lines(document)
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def parse_collapsed(text: str) -> dict[tuple[str, ...], int]:
    """Parse collapsed-stack text back into ``{stack: count}``.

    The round-trip partner of :func:`collapsed_lines`; tests use it to
    prove the emitted file is well-formed for downstream tooling.
    """
    out: dict[tuple[str, ...], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack_part, _, count_part = line.rpartition(" ")
        if not stack_part or not count_part.isdigit():
            raise ValueError(f"collapsed line {lineno}: {line!r}")
        key = tuple(stack_part.split(";"))
        out[key] = out.get(key, 0) + int(count_part)
    return out
