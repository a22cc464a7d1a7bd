"""Print digests of the outputs a change must leave bit-identical.

    python3 tools/same_bits.py > bits.txt

Run it in two checkouts and ``diff`` the two files: no output means the same
bits. It imports ``mdots`` from the ``src`` tree next to it. Its first lines
are numpy's version and the SIMD extensions numpy was built for and found on
the CPU. Some of numpy's kernels give other bits on other CPU levels (the
float32 path cosine under the baseline x86-64-v2 kernel; float64 ``exp``
and ``log`` under AVX-512), so a diff between two machines shows first
whether they ran different kernels. Then it covers

- the Sellar run record (seed 20250808, 5 DoE, 10 refinements);
- the six toy study records (seed 0, 4 DoE, 3 refinements, 2 workers) and
  their ``summary.csv``;
- the ``aggregate.csv`` and traces that ``mdots report`` writes from them;
- the toy and Sellar reference re-solves.

Each record is digested without its timing line and without the ``out``
setting of its header, the only parts that differ between two runs.
Needs numpy and the standard library only; takes about a minute on two cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

from mdots.cli import main  # noqa: E402
from mdots.problems import sellar_problem, toy_problem  # noqa: E402
from mdots.study import resolve_reference  # noqa: E402


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record_digest(path: Path) -> str:
    """The digest of a record file with its timing line and its header's ``out`` setting set aside."""
    kept = []
    for line in path.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        if obj["kind"] == "timing":
            continue
        if obj["kind"] == "header":
            obj["config"].pop("out")
        kept.append(json.dumps(obj))
    return digest("\n".join(kept).encode())


def cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"mdots {' '.join(argv)} exited {code}")


def print_numpy_build() -> None:
    print("numpy", np.__version__)
    # "baseline", then "found" and "not found" where numpy has any: a CPU without them reports no "found".
    for key, names in np.show_config(mode="dicts")["SIMD Extensions"].items():
        print(f"numpy SIMD {key}:", " ".join(names))


def main_digests(tmp: Path) -> None:
    sellar_dir, study_dir, report_dir = tmp / "sellar-run", tmp / "toy-study", tmp / "report"
    cli("run", "--problem", "sellar", "--seed", "20250808", "--n-doe", "5", "--n-iter", "10", "--out", str(sellar_dir))
    print("sellar-run run_0.ndjson", record_digest(sellar_dir / "run_0.ndjson"))

    cli("study", "--problem", "toy", "--seed", "0", "--n-doe", "4", "--n-iter", "3", "--repeat", "6",
        "--workers", "2", "--out", str(study_dir))
    for path in sorted(study_dir.glob("run_*.ndjson")):
        print("toy-study", path.name, record_digest(path))
    print("toy-study summary.csv", digest((study_dir / "summary.csv").read_bytes()))

    cli("report", str(study_dir), "--out", str(report_dir))
    for path in sorted(report_dir.glob("*.csv")):
        print("report", path.name, digest(path.read_bytes()))

    for problem in (toy_problem(), sellar_problem()):
        ref = resolve_reference(problem, recompute=True)
        print(f"reference {problem.problem_id} z={[float(v) for v in ref.z]!r} objective={ref.objective!r}")


if __name__ == "__main__":
    print_numpy_build()
    with tempfile.TemporaryDirectory(prefix="same-bits-") as tmp:
        main_digests(Path(tmp))
