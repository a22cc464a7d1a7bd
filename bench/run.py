"""mdots benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload sellar-run --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sellar-run``, ``toy-study``,
``external-reference``; ``--workload all`` runs each in turn. Run from the
root of a checkout; ``mdots`` is imported from its ``src`` tree.

``--trace 0`` measures end to end with no hooks: operations back to back
while the next one should still end within ``--seconds`` (at least one).
``--trace 1`` runs one untraced operation, then traced ones in the same
window, and reports the per-layer metrics of the traced ones (median over
operations) with the tracing overhead. Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; names and units of
the metrics are those in ``BENCHMARK.json``. A full result with machine
info, per-operation figures and module self times goes to
``bench/results/``, and the spans of a traced run next to it.

The command exits non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from env import BENCH_DIR, RESULTS_DIR, THREAD_VARS, live_children, pin_environment

BENCHMARK_SPEC = BENCH_DIR.parent / "BENCHMARK.json"
SETUP_REPEATS = 3


def time_setup(workload) -> float:
    """Seconds from starting a fresh interpreter to the workload being ready for its first operation."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name] + (["--tiny"] if workload.tiny else [])
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdin.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload.name} failed (exit {code}, said {line.strip()!r})")
    return elapsed


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped children (ru_maxrss is in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _median(values):
    return statistics.median(values) if values else math.nan


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and its reaped children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _operate(workload, tracer=None):
    """One operation: the timed library call, then its untimed output checks."""
    from tracing import installed

    if tracer is None:
        t0 = perf_counter()
        result = workload.run()
        wall = perf_counter() - t0
        return wall, workload.check(result)
    with installed(tracer):
        root = tracer.begin("op")
        t0 = perf_counter()
        try:
            result = workload.run(in_process=True)
        finally:
            wall = perf_counter() - t0
            tracer.end(root)
        return wall, workload.check(result)


def measure(workload, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; return the result (metrics by name, counts, details)."""
    import tracing

    setups = [] if trace else [time_setup(workload) for _ in range(setup_repeats)]
    errors: list = []
    ops: list = []
    attempted = failed = 0
    tracer = tracing.Tracer() if trace else None

    def attempt(traced: bool):
        nonlocal attempted, failed
        attempted += 1
        if traced:
            tracer.op = attempted
        cpu0 = cpu_seconds()
        try:
            wall, outcome = _operate(workload, tracer if traced else None)
        except Exception:
            failed += 1
            errors.append(traceback.format_exc())
            return
        if outcome.errors:
            failed += 1
            errors.extend(outcome.errors)
        ops.append({"traced": traced, "wall": wall, "cpu": cpu_seconds() - cpu0, "outcome": outcome,
                    "op": tracer.op if traced else None})

    try:
        workload.setup()
        if trace:
            attempt(False)
        # Operations back to back while the next one, if it takes as long as
        # the last, still ends inside the window; always at least one.
        start = perf_counter()
        while True:
            t0 = perf_counter()
            attempt(trace)
            now = perf_counter()
            if now - start + (now - t0) > seconds:
                break
    finally:
        workload.close()
    left = live_children()
    if left:
        failed += 1
        errors.append(f"{left} child process(es) still running after the workload closed")

    if trace:
        errors.extend(tracing.check_hooks(tracer, workload.active, workload.idle))
        metrics = per_layer(workload, ops, tracer, left)
    else:
        metrics = end_to_end(ops, setups)
    return {
        "workload": workload.name,
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "setup_s": setups,
        "ops": [{"traced": o["traced"], "wall_s": o["wall"], "cpu_s": o["cpu"], "converged": o["outcome"].converged,
                 "rel_err_pct": o["outcome"].rel_err_pct} for o in ops],
        "self_s": {o["op"]: tracing.module_self_times(tracer, o["op"]) for o in ops if o["traced"]} if trace else {},
        "tracer": tracer,
    }


def end_to_end(ops, setups) -> dict:
    walls = [o["wall"] for o in ops]
    converged = [c for o in ops for c in o["outcome"].converged]
    scored = [(c, e) for o in ops for c, e in zip(o["outcome"].converged, o["outcome"].rel_err_pct)]
    # Over the converged runs; when none converged, over every run, so the figure stays defined.
    errs = [e for c, e in scored if c] or [e for _, e in scored]
    return {
        "solve_s": _median(walls),
        "setup_s": _median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "converged_frac": sum(converged) / len(converged) if converged else math.nan,
        "rel_err_pct": statistics.fmean(errs) if errs else math.nan,
    }


def per_layer(workload, ops, tracer, children_left: int) -> dict:
    import tracing
    from tracing import ratio

    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    per_op = [tracing.layer_metrics(tracer, o["op"]) for o in traced]
    # median_low keeps a count that every operation repeats an integer.
    metrics = {k: statistics.median_low([m[k] for m in per_op]) for k in (per_op[0] if per_op else {})}

    def busy(o):
        # A traced study runs in-process, an untraced one on the pool: compare replicate seconds.
        recs = o["outcome"].records
        return sum(r.timing["total_seconds"] for r in recs) if recs else o["wall"]

    if traced and plain:
        recs = traced[0]["outcome"].records
        base = plain[0]["outcome"].records
        steps = [e for r in recs for e in r.iterations]
        busy_s = sum(r.timing["total_seconds"] for r in base)
        seconds = sorted(r.timing["total_seconds"] for r in base)
        is_study = "study" in workload.active
        workers = workload.cfg.workers if is_study else 1
        # The untraced study's wall time, less the summary the parent computes after the pool closes.
        pool_s = plain[0]["wall"] - metrics["study.summary_s"] if is_study else 0.0
        overhead = _median([busy(o) for o in traced]) - busy(plain[0])
        metrics.update(
            {
                "thompson.steps": len(steps),
                "thompson.true_evals": sum(sum(r.evaluations_per_discipline()) for r in recs),
                "thompson.refined_frac": ratio(sum(e.refined for e in steps), len(steps)),
                "thompson.clamped_frac": ratio(sum(e.clamped for e in steps), len(steps)),
                "thompson.doe_s": sum(r.timing["doe_seconds"] for r in base),
                "thompson.loop_s": sum(r.timing["loop_seconds"] for r in base),
                "thompson.final_s": sum(r.timing["final_solve_seconds"] for r in base),
                "study.pool_s": pool_s,
                "study.busy_s": busy_s if is_study else 0.0,
                "study.pool_efficiency": ratio(busy_s, workers * pool_s) if is_study else 0.0,
                "study.tail_ratio": ratio(seconds[-1], statistics.median(seconds)) if is_study else 0.0,
                "records.bytes": _median([o["outcome"].record_bytes for o in traced]),
                "external.children_left": children_left,
                "trace.overhead_s": overhead,
                "trace.overhead_pct": ratio(100.0 * overhead, busy(plain[0])),
            }
        )
    return metrics


def _spec() -> dict:
    with open(BENCHMARK_SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def _line(result: dict, trace: bool) -> dict:
    """The last output line: every metric the spec lists for this mode, with its unit."""
    listed = _spec()["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    missing = [m["name"] for m in listed if m["name"] not in got]
    if missing:
        result["correct"] = False
        result["errors"].append(f"metrics not produced: {missing}")

    def number(v):
        return v if isinstance(v, (int, float)) and math.isfinite(v) else None

    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": number(got.get(m["name"])), "unit": m["unit"]} for m in listed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or all to run each in turn")
    parser.add_argument("--seed", type=int, required=True, help="recorded with the result; workload inputs are pinned")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    import workloads

    if args.workload == "all":
        # Each workload in a fresh interpreter, so set-up and peak memory are its own.
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [subprocess.call([sys.executable, __file__, "--workload", name, *common]) for name in workloads.WORKLOADS]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    workload = workloads.make(args.workload)
    result = measure(workload, args.seconds, bool(args.trace))
    line = _line(result, bool(args.trace))

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer")
    if tracer is not None:
        tracer.write(RESULTS_DIR / f"{stem}-spans.ndjson")
    full = {**result, "seed": args.seed, "workload_seeds": workload.seeds, "machine": machine_info(), "line": line}
    Path(RESULTS_DIR / f"{stem}.json").write_text(json.dumps(full, indent=1, default=str) + "\n", encoding="utf-8")

    info = full["machine"]
    print(
        f"{args.workload}: seed {args.seed}, inputs {workload.seeds}; {info['nproc']} x {info['cpu']}, "
        f"Python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']}, "
        f"{info['blas']['name']} {info['blas']['version']} with {os.environ['OPENBLAS_NUM_THREADS']} thread(s)",
        file=sys.stderr,
    )
    for err in result["errors"]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    for name, entry in line["metrics"].items():
        print(f"{args.workload:>18}  {name:<30} {entry['value']!r:>24} {entry['unit']}", file=sys.stderr)
    for op, table in result["self_s"].items():
        shares = ", ".join(f"{m}={s:.3f}" for m, s in table.items())
        print(f"self seconds by module (op {op}): {shares}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
