"""Finding records for the static verifier.

A :class:`StaticFinding` is one rule hit at a file and line, with the
*call chain* that witnesses the violation — the path through the
conservative call graph from a charged root (or untrusted origin) to
the forbidden sink; file-local hits carry a one-hop chain.
Fingerprints deliberately exclude line numbers, so a SARIF consumer
tracks one finding across unrelated edits to the same file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

#: rule id -> short description, used by reports and the SARIF driver.
ALL_SC_RULES: dict[str, str] = {
    "SC001": "nondeterministic source reachable from cycle-charged code",
    "SC002": "unordered set iteration feeding charges or digests",
    "SC003": "entry point reaches no cycle-charge site",
    "SC005": "entry point has an uncharged exit path",
    "SC006": "untrusted value reaches a trusted sink unmarshalled",
    "SC007": "telemetry span neither context-managed nor returned",
    "SC008": "bare except in a trusted layer",
    "SC009": "charge category not declared in the registry",
    "SC010": "module-level import never used",
}


@dataclass
class StaticFinding:
    """One analyzer hit, with its witnessing call chain."""

    rule: str
    path: str
    line: int
    symbol: str
    message: str
    chain: list[str] = field(default_factory=list)
    sink: str = ""
    suppressed: bool = False
    justification: str | None = None

    def fingerprint(self) -> str:
        """Line-number-free stable identity (SARIF partialFingerprints)."""
        text = "\x1f".join((self.rule, self.path, self.symbol, self.sink))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def render(self) -> str:
        """Human-readable block: location line plus the call chain."""
        tag = " (suppressed)" if self.suppressed else ""
        lines = [f"{self.path}:{self.line}: {self.rule}{tag}: "
                 f"{self.message}"]
        if self.chain:
            lines.append("    call chain: " + " -> ".join(self.chain))
        return "\n".join(lines)

    def sort_key(self) -> tuple:
        """Deterministic report ordering."""
        return (self.path, self.line, self.rule, self.symbol, self.sink)
