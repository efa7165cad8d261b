"""``python -m repro.staticcheck`` — run the whole-program verifier."""

from __future__ import annotations

import sys

from repro.cliexit import run_cli
from repro.staticcheck.cli import main

sys.exit(run_cli(main))
