"""Fixed and recorded environment of a benchmark process.

`fix_threads` must run before numpy is imported: OpenBLAS reads its thread
count once, when it loads. The solves repeat bit for bit across processes at
a fixed thread count, and take other iterates at another one, so the count is
part of what `reference.json` records. One thread: on a 2-vCPU machine shared
with other tenants, two OpenBLAS threads made the 12-state design slower, not
faster, and a stalled partner thread stretched whole runs.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fix_threads() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_library():
    """Import structh2 from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "structh2" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no structh2 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import structh2
    if Path(structh2.__file__).resolve().parent != SRC / "structh2":
        raise SystemExit(f"benchmark: imported structh2 from {structh2.__file__}, not {SRC}")
    return structh2


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def describe(threads: int, workload: str, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"openblas_threads": threads, "nproc": nproc(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git": git_revision(),
            "workload": workload, "seed": seed}
