"""``python -m repro.bench`` entry point."""

from repro.bench.cli import main
from repro.cliexit import run_cli

if __name__ == "__main__":
    raise SystemExit(run_cli(main))
