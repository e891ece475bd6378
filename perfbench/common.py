"""Paths and process set-up shared by the benchmark's entry points.

Import this module before numpy: it pins the BLAS and OpenMP thread pools
to one thread, so the single closed-loop client never competes with
library threads on the two-core reference machine.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Everything the benchmark writes lives here (ignored by git).
WORK = ROOT / ".bench_build"


class MissingProgram(RuntimeError):
    """The checkout holds no chplanner sources to benchmark."""


def import_chplanner():
    """Import chplanner from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "chplanner" / "__init__.py"
    if not package.is_file():
        raise MissingProgram(f"no chplanner sources at {package.parent}")
    sys.path.insert(0, str(SRC))
    import chplanner

    if Path(chplanner.__file__).resolve() != package.resolve():
        raise MissingProgram(f"imported chplanner from {chplanner.__file__}, not {package}")
    return chplanner


def child_env() -> dict[str, str]:
    """Environment for subprocesses: pinned threads and this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env
