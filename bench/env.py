"""Process set-up shared by the benchmark's entry points.

The BLAS thread count is pinned before numpy loads, so every commit is
measured with the same setting, and ``mdots`` is imported from the
checkout's ``src`` tree, never from an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"

# The GP matrices are ~15x15 and studies already use one worker per core,
# so BLAS threads only add contention. Pinned, never inherited.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Pin BLAS threads and put the checkout's sources first on the import path.

    Exits non-zero when the checkout has no ``src/mdots``: the benchmark
    measures the code next to it or nothing.
    """
    if not (SRC / "mdots" / "__init__.py").is_file():
        raise SystemExit(f"no mdots sources under {SRC}; run from a checkout of the repository")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    # Children started by the library (pool workers, external solvers) see the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    import mdots

    if not Path(mdots.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"mdots imported from {mdots.__file__}, not from {SRC}")


def live_children() -> int:
    """Processes whose parent is this one and that have not exited (zombies excluded)."""
    me = os.getpid()
    count = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            count += 1
    return count
