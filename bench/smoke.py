"""Fast smoke check of the benchmark harness at tiny sizes (well under a minute).

    python3 bench/smoke.py

Runs every workload once untraced and once traced at tiny sizes (toy with
one refinement, Sellar with one, the external reference at a loose MDA
tolerance), so every workload's code path and every output check runs and
every metric in ``BENCHMARK.json`` is produced. Then it feeds each check a
bad input and confirms the check fails. Exits non-zero on any problem.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace

from env import pin_environment

pin_environment()

import run  # noqa: E402  (needs the pinned environment)
import tracing  # noqa: E402
import workloads  # noqa: E402
from env import live_children  # noqa: E402


def harness_runs(problems: list) -> None:
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.measure(workloads.make(name, tiny=True), 0.0, trace, setup_repeats=1)
            result.pop("tracer")
            line = run._line(result, trace)
            values = [m["value"] for m in line["metrics"].values()]
            label = f"{name} trace={int(trace)}"
            if not line["correct"] or line["failed"] or any(v is None for v in values):
                problems.append(f"{label}: {result['errors'] or line}")
            print(f"{label}: attempted={line['attempted']} failed={line['failed']} correct={line['correct']}")


def checks_catch_faults(problems: list) -> None:
    sellar = workloads.make("sellar-run", tiny=True)
    sellar.setup()
    record = sellar.run()
    if sellar.check(record).errors:
        problems.append("a good Sellar record failed its checks")
    bad = replace(record, final_value=float("nan"), iterations=record.iterations[:-1])
    if len(sellar.check(bad).errors) != 2:
        problems.append("non-finite value or a lost evaluation went unnoticed")

    toy = workloads.make("toy-study", tiny=True)
    toy.setup()
    recs, summary, out_dir = toy.run(in_process=True)
    recs[0] = replace(recs[0], final_z=[0.5])  # differs from what was written
    if not any("load back" in e for e in toy.check((recs, summary, out_dir)).errors):
        problems.append("a record that does not load back equal went unnoticed")

    ext = workloads.make("external-reference", tiny=True)
    ext.setup()
    try:
        ref = ext.run()
        if ext.check(ref).errors:
            problems.append("a good external reference failed its checks")
        if not ext.check(replace(ref, objective=ref.objective * (1 + 1e-6))).errors:
            problems.append("disagreement with the in-process reference went unnoticed")
    finally:
        ext.close()

    with subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"]) as stray:
        seen = live_children()
        stray.kill()
    if seen != 1:
        problems.append(f"a stray child was counted as {seen}")

    if len(tracing.check_hooks(tracing.Tracer(), {"gp", "paths"}, set())) != 2:
        problems.append("silent modules were not reported by the hook check")


def main() -> int:
    problems: list = []
    harness_runs(problems)
    checks_catch_faults(problems)
    for p in problems:
        print(f"SMOKE FAILED: {p}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
