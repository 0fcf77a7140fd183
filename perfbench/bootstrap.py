"""Process set-up shared by the benchmark scripts.

Call :func:`prepare` before anything imports numpy: it pins the BLAS
thread pools to one thread and puts the checkout's ``src`` directory first
on the import path. The benchmark only ever measures the library from the
checkout it sits in, so a missing ``src/nashsplit`` is a hard error.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "nashsplit" / "__init__.py").is_file():
        print(f"benchmark: no nashsplit package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
