"""Replicate studies: worker pool, reference solutions, statistics."""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass

import numpy as np

from .evolution import DeConfig, de_minimize, penalized_mdo_objective
from .external import load_external_problem
from .mda import REFERENCE_TOL, MdaConfig
from .problems import MdoProblem, ReferenceSolution, sellar_problem, toy_problem
from .records import EARLIER_VERSIONS, SCHEMA_VERSION, RunRecord, save_run_record
from .thompson import ExperimentConfig, convergence_check, run_mdo_ts

__all__ = [
    "ExperimentConfig",
    "VariableStat",
    "StudySummary",
    "build_problem",
    "run_replicate",
    "run_study",
    "run_from_record",
    "resolve_reference",
    "judge_record",
    "judge_study",
    "abs_pct_err",
    "summarize",
    "summarize_study",
]

log = logging.getLogger(__name__)

# Each forked pool worker runs its own BLAS thread pool unless one of these pins it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class VariableStat:
    name: str
    reference: float
    mean_converged: float | None
    mean_abs_pct_err: float | None


@dataclass
class StudySummary:
    """Convergence counts and per-variable statistics over converged runs only."""

    problem: str
    n_runs: int
    n_converged: int
    variables: list


def build_problem(cfg: ExperimentConfig) -> MdoProblem:
    """The problem ``cfg`` names; ``ExperimentConfig`` has already refused one it cannot build."""
    if cfg.problem == "toy":
        return toy_problem()
    if cfg.problem == "sellar":
        return sellar_problem()
    return load_external_problem(cfg.external_cmd)


def run_replicate(cfg: ExperimentConfig, k: int, out_dir: str | None = None) -> RunRecord:
    """One independent replicate; persists its record when ``out_dir`` is given."""
    with build_problem(cfg) as problem:
        record = run_mdo_ts(problem, cfg, replicate=k)
    if out_dir is not None:
        save_run_record(record, os.path.join(out_dir, f"run_{k}.ndjson"))
    return record


def run_from_record(record: RunRecord, out_dir: str | None = None) -> RunRecord:
    """Re-launch a run from the config embedded in its record; a record of another schema version is a ValueError."""
    if record.schema_version != SCHEMA_VERSION:
        raise ValueError(f"a schema version {record.schema_version} record was "
                         f"{EARLIER_VERSIONS.get(record.schema_version, 'written by another version')} "
                         "and cannot be re-launched bit for bit")
    cfg = ExperimentConfig.from_dict(record.config)
    return run_replicate(cfg, record.replicate, out_dir=out_dir)


def _timed_replicate(cfg: ExperimentConfig, k: int, out_dir: str | None):
    """``(record, error, seconds)`` of one replicate; a failure is returned as its message."""
    started = time.perf_counter()
    try:
        record, error = run_replicate(cfg, k, out_dir), None
    except Exception as exc:
        record, error = None, str(exc)
    return record, error, time.perf_counter() - started


def run_study(cfg: ExperimentConfig, out_dir: str | None = None):
    """Run ``repeat`` independent replicates and summarize them.

    Replicates are keyed by index; execution order (and the worker pool
    width) cannot change any record or statistic. The pool has ``workers``
    processes (when unset, one per CPU this process may run on), at most
    ``repeat``. The problem is built and closed once before any replicate
    runs, so one that cannot be built fails the study at once. Each
    finished replicate is logged on the ``mdots.study`` logger, in the order
    they finish: at INFO when it ran, at WARNING with its cause when it
    failed outright. A failed replicate counts as a run that did not
    converge; the study always completes. Opening a pool while none of
    ``BLAS_THREAD_VARS`` is set logs one WARNING there.
    """
    build_problem(cfg).close()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus if cfg.workers is None else cfg.workers, cfg.repeat)
    records = []

    def finish(k, done, record, error, seconds):
        if error is None:
            records.append(record)
            log.info("replicate %d ok in %.2f s (%d of %d done)", k, seconds, done, cfg.repeat)
        else:
            log.warning("replicate %d failed in %.2f s (%d of %d done): %s", k, seconds, done, cfg.repeat, error)

    if workers <= 1:
        for k in range(cfg.repeat):
            finish(k, k + 1, *_timed_replicate(cfg, k, out_dir))
    else:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        if not any(os.environ.get(var) for var in BLAS_THREAD_VARS):
            log.warning("none of %s is set, so each of the %d pool workers runs BLAS threads of its own, "
                        "which slows a study several-fold", ", ".join(BLAS_THREAD_VARS), workers)
        started = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_timed_replicate, cfg, k, out_dir): k for k in range(cfg.repeat)}
            for done, future in enumerate(as_completed(futures), 1):
                try:
                    outcome = future.result()
                except Exception as exc:  # the pool itself failed; time it from the study's start
                    outcome = None, str(exc), time.perf_counter() - started
                finish(futures[future], done, *outcome)
    records.sort(key=lambda r: r.replicate)
    return records, summarize_study(cfg, records)


def judge_study(cfg: ExperimentConfig, *record_sets):
    """Judge record sets of one config by ``judge_record``, for ``summarize_study`` and ``compare.compare_records``.

    Returns the (closed) problem, its reference, each set's ``{replicate: (record, f, converged)}`` and the runs:
    ``range(cfg.repeat)`` and every replicate with a record, so a failed replicate counts as a run not converged.
    """
    with build_problem(cfg) as problem:
        reference = resolve_reference(problem)
        judged = [{r.replicate: (r, *judge_record(problem, r, reference)) for r in records} for records in record_sets]
    return problem, reference, judged, sorted(set(range(cfg.repeat)).union(*judged))


def summarize_study(cfg: ExperimentConfig, records) -> StudySummary:
    """The study table of ``records``, judged by ``judge_study``."""
    problem, reference, (judged,), runs = judge_study(cfg, records)
    return _table(problem, reference, judged.values(), n_runs=len(runs))


def resolve_reference(problem: MdoProblem, recompute: bool = False, tolerance: float = REFERENCE_TOL) -> ReferenceSolution:
    """The shipped reference (a re-solve at ``REFERENCE_TOL``), or a fresh exhaustive solve of the true problem."""
    if problem.reference is not None and not recompute:
        return problem.reference
    objective = penalized_mdo_objective(problem.disciplines, problem, MdaConfig.reference(tolerance))
    result = de_minimize(objective, problem.z_bounds, DeConfig.reference())
    f_true, _ = problem.true_objective(result.z, tolerance=tolerance)
    return ReferenceSolution(z=result.z, objective=float(f_true))


def judge_record(problem: MdoProblem, record: RunRecord, reference: ReferenceSolution) -> tuple[float, bool]:
    """The true objective at a record's final design, and whether it converged within 1 % of ``reference``.

    A record of another problem, or with a final design of another length, is a ValueError.
    """
    if record.problem != problem.problem_id:
        raise ValueError(f"a record of problem {record.problem!r} in a summary of {problem.problem_id!r}")
    if len(record.final_z) != problem.d_z:
        raise ValueError(f"replicate {record.replicate}'s final design has {len(record.final_z)} values; "
                         f"problem {problem.problem_id!r} has {problem.d_z}")
    f, _ = problem.true_objective(np.asarray(record.final_z))
    return f, bool(np.isfinite(f) and convergence_check(reference.objective, f))


def abs_pct_err(ref, found):
    """The absolute percent error of ``found`` (a number or an array) against a nonzero ``ref``."""
    return abs(100.0 * (ref - found) / ref)


def summarize(problem: MdoProblem, records, reference: ReferenceSolution, n_runs: int) -> StudySummary:
    """Apply the relative convergence criterion and average the converged runs.

    Each record is judged by ``judge_record``. ``n_runs`` is the study's run
    count, which a failed replicate counts in without a record.
    """
    return _table(problem, reference, [(r, *judge_record(problem, r, reference)) for r in records], n_runs)


def _table(problem: MdoProblem, reference: ReferenceSolution, judged, n_runs: int) -> StudySummary:
    """The study table of ``(record, f, converged)`` triples."""
    z_found = np.array([record.final_z for record, _, _ in judged], dtype=float).reshape(-1, problem.d_z)
    f_found = np.array([f for _, f, _ in judged], dtype=float)
    mask = np.array([ok for _, _, ok in judged], dtype=bool)

    variables = []
    names = [f"z{i + 1}" for i in range(problem.d_z)] + ["objective"]
    refs = list(np.atleast_1d(reference.z)) + [reference.objective]
    values = [z_found[:, i] for i in range(problem.d_z)] + [f_found]
    for name, ref, vals in zip(names, refs, values):
        if mask.any():
            mean = float(vals[mask].mean())
            err = float(np.mean(abs_pct_err(ref, vals[mask]))) if ref != 0.0 else None
        else:
            mean, err = None, None
        variables.append(VariableStat(name=name, reference=float(ref), mean_converged=mean, mean_abs_pct_err=err))
    return StudySummary(
        problem=problem.problem_id,
        n_runs=n_runs,
        n_converged=int(mask.sum()),
        variables=variables,
    )
