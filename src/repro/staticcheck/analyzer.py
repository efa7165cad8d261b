"""Pass orchestration: load, build facts, run passes, apply pragmas.

:func:`analyze` is the single programmatic entry point — the CLI, the
test suite and the mutation corpus all go through it.  Suppression
pragmas (``# repro-lint: disable=SC001 -- why``) are honored at either
the finding's line or the enclosing function's ``def`` line;
suppressed findings stay in the result, flagged, so reports can show
what was waived and why.
"""

from __future__ import annotations

from pathlib import Path

from repro.staticcheck import charges, determinism, filelocal, taint
from repro.staticcheck.callgraph import build_facts
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.findings import StaticFinding
from repro.staticcheck.project import Project


def analyze(paths: list[Path],
            config: StaticcheckConfig | None = None,
            overlay: dict[str, str] | None = None) -> list[StaticFinding]:
    """Run every enabled pass over ``paths``; findings come back sorted.

    ``overlay`` maps POSIX path strings to replacement source text so
    callers (the mutation tests) can inject violations without copying
    the tree.
    """
    config = config or StaticcheckConfig()
    project = Project.load(list(paths), overlay)
    facts = build_facts(project)

    raw: list[StaticFinding] = []
    if config.rule_enabled("SC001") or config.rule_enabled("SC002"):
        raw.extend(determinism.run(project, facts, config))
    if config.rule_enabled("SC003") or config.rule_enabled("SC005"):
        raw.extend(charges.run(project, facts, config))
    if config.rule_enabled("SC006"):
        raw.extend(taint.run(project, facts, config))
    reported = {(f.rule, f.path, f.line, f.sink) for f in raw}
    raw.extend(f for f in filelocal.run(project, config)
               if (f.rule, f.path, f.line, f.sink) not in reported)

    findings: list[StaticFinding] = []
    for finding in raw:
        if not config.rule_enabled(finding.rule):
            continue
        if config.path_excluded(finding.path):
            continue
        why = project.suppression_for(
            finding.path, finding.line, finding.rule)
        if why is None:
            info = project.functions.get(finding.symbol)
            if info is not None and info.path == finding.path:
                why = project.suppression_for(
                    finding.path, info.lineno, finding.rule)
        if why is not None:
            finding.suppressed = True
            finding.justification = why
        findings.append(finding)
    findings.sort(key=StaticFinding.sort_key)
    return findings
