"""Exit handling shared by the ``python -m repro.*`` command lines.

A reader that stops early (``python -m repro.bench report | head -1``)
closes stdout under the writer.  That is the normal end of a pipeline,
not an error, so each CLI then exits 0 with nothing on stderr.
"""

from __future__ import annotations

import os
import sys
from typing import Callable


def run_cli(main: Callable[[], int]) -> int:
    """``main()``'s exit code, or 0 once the reader has closed stdout."""
    try:
        code = main()
        sys.stdout.flush()            # a closed pipe surfaces here
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of
        # whatever is still buffered cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code
