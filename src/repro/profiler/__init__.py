"""Exact cycle-attribution profiler over the telemetry span tree.

Layers on :mod:`repro.telemetry`: spans already record exact simulated
cycle intervals and their full ancestor stack, so profiles here are a
complete accounting (self-cycles sum to root-span cycles), never a
sample.  See docs/OBSERVABILITY.md for the file formats and a "reading a
cycle profile" walkthrough.

* :func:`profile_document` / :func:`machine_profile` — build profiles;
* :mod:`repro.profiler.collapsed` — flamegraph-ready collapsed stacks;
* :mod:`repro.profiler.diff` — top cycle-delta frames between two runs.

``python -m repro.bench run ... --artifacts DIR`` writes
``<name>.profile.json`` and ``<name>.collapsed``; ``python -m repro.bench
report`` prints the top frames and ``python -m repro.bench diff A B``
diffs two profiles.

Profiles hold simulated cycles only.  Host time per layer is
``perfbench/run.py --trace 1``'s job.
"""

from repro.profiler.core import (PROFILE_KIND, PROFILE_VERSION, FrameStats,
                                 machine_profile, profile_document,
                                 profile_summary, self_total,
                                 validate_profile)
from repro.profiler.collapsed import (collapsed_lines, parse_collapsed,
                                      write_collapsed)
from repro.profiler.diff import FrameDelta, diff_profiles, diff_report

__all__ = [
    "PROFILE_KIND", "PROFILE_VERSION", "FrameStats",
    "machine_profile", "profile_document", "profile_summary",
    "self_total", "validate_profile",
    "collapsed_lines", "parse_collapsed", "write_collapsed",
    "FrameDelta", "diff_profiles", "diff_report",
]
