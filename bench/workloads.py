"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one operation at a time from this process.
Inputs are pinned configurations, not drawn from the run's seed: a Sellar
run's wall time moves by a third between neighbouring seeds and a toy
replicate's by a factor of ten, so seed-drawn inputs would measure the
input mix rather than the code.

- ``sellar-run``: ROADMAP aim 1's headline run. Path evaluation and DE
  bookkeeping dominate; every MDA candidate converges.
- ``toy-study``: a six-replicate study on a two-worker pool. Replicate 4 is
  slow and hits the MDA sweep cap; this is the workload for the pool and
  its tail, record I/O and GP refits.
- ``external-reference``: the reference re-solve of Sellar with both
  disciplines and the objective as line-protocol children. Almost all of
  its time is row round trips; it makes no GP or path calls.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field, replace
from inspect import getclosurevars
from pathlib import Path

import numpy as np

import mdots.records as records
from mdots.external import load_external_problem
from mdots.problems import sellar_problem
from mdots.study import ExperimentConfig, build_problem, run_replicate, run_study
from mdots.study import resolve_reference  # bound here so traced runs span only the library's own calls
from mdots.thompson import convergence_check

from env import BENCH_DIR, RESULTS_DIR

QUALITY_TOL = 1e-10


@dataclass
class Outcome:
    """What the output checks found for one operation."""

    errors: list = field(default_factory=list)
    converged: list = field(default_factory=list)
    rel_err_pct: list = field(default_factory=list)
    records: list = field(default_factory=list)
    record_bytes: int = 0


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _score(problem, z, out: Outcome) -> None:
    """The paper's criterion: the true coupled solve converges within 1 % of the shipped optimum."""
    f_ref = problem.reference.objective
    f, _ = problem.true_objective(np.asarray(z, dtype=float), tolerance=QUALITY_TOL)
    converged = math.isfinite(f) and convergence_check(f_ref, f)
    out.converged.append(converged)
    out.rel_err_pct.append(abs(f - f_ref) / abs(f_ref) * 100.0 if math.isfinite(f) else math.inf)


def _check_record(problem, cfg: ExperimentConfig, record, out: Outcome) -> None:
    tag = f"replicate {record.replicate}"
    if not (_finite(record.final_z) and math.isfinite(record.final_value) and _finite(list(record.timing.values()))):
        out.errors.append(f"{tag}: non-finite final design, value or timing")
    counts = record.evaluations_per_discipline()
    if counts != [cfg.n_doe + cfg.n_iter] * problem.n_disciplines:
        out.errors.append(f"{tag}: evaluations per discipline {counts}, expected {cfg.n_doe + cfg.n_iter} each")
    out.records.append(record)
    _score(problem, record.final_z, out)


class Workload:
    name: str
    tiny: bool  # smoke-check sizes
    seeds: dict
    # Modules the traced run must see, and modules predicted to stay idle.
    active: frozenset
    idle: frozenset

    def setup(self) -> None:
        """Everything before the first operation: build the problem, start children."""

    def run(self, in_process: bool = False):
        """The timed operation: calls into the library only."""
        raise NotImplementedError

    def check(self, result) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` started."""


class SellarRun(Workload):
    name = "sellar-run"
    active = frozenset({"gp", "paths", "mda", "evolution", "thompson", "problems"})
    idle = frozenset({"external"})

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.cfg = ExperimentConfig(
            problem="sellar",
            seed=20250808,
            n_doe=3 if tiny else 5,
            n_iter=1 if tiny else 10,
            n_features=64 if tiny else 1000,
            de_max_generations=20 if tiny else 300,
        )
        self.seeds = {"seed": self.cfg.seed, "replicates": [0]}

    def setup(self):
        self.problem = build_problem(self.cfg)

    def run(self, in_process=False):
        return run_replicate(self.cfg, 0)

    def check(self, record):
        out = Outcome()
        _check_record(self.problem, self.cfg, record, out)
        return out


class ToyStudy(Workload):
    name = "toy-study"
    active = frozenset({"gp", "paths", "mda", "evolution", "thompson", "study", "records", "problems"})
    idle = frozenset({"external"})

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.cfg = ExperimentConfig(
            problem="toy",
            seed=0,
            repeat=2 if tiny else 6,
            n_doe=4,
            n_iter=1 if tiny else 3,
            workers=2,
            de_max_generations=20 if tiny else 300,
        )
        self.seeds = {"seed": self.cfg.seed, "replicates": list(range(self.cfg.repeat))}

    def setup(self):
        self.problem = build_problem(self.cfg)
        RESULTS_DIR.mkdir(exist_ok=True)

    def run(self, in_process=False):
        # Spans recorded in pool workers stay there, so a traced study runs in-process.
        cfg = replace(self.cfg, workers=1) if in_process else self.cfg
        out_dir = tempfile.mkdtemp(prefix="records-", dir=RESULTS_DIR)
        recs, summary = run_study(cfg, out_dir)
        return recs, summary, out_dir

    def check(self, result):
        recs, summary, out_dir = result
        out = Outcome()
        try:
            if [r.replicate for r in recs] != list(range(self.cfg.repeat)):
                out.errors.append(f"replicates {[r.replicate for r in recs]} came back, expected {self.cfg.repeat}")
            for record in recs:
                _check_record(self.problem, self.cfg, record, out)
                path = f"{out_dir}/run_{record.replicate}.ndjson"
                if not records.records_equal(records.load_run_record(path), record, ignore_timing=False):
                    out.errors.append(f"replicate {record.replicate}: record does not load back equal")
            out.record_bytes = sum(p.stat().st_size for p in Path(out_dir).glob("*.ndjson"))
            if summary.n_runs != self.cfg.repeat or summary.n_converged != sum(out.converged):
                out.errors.append(
                    f"summary counts {summary.n_converged}/{summary.n_runs} disagree with "
                    f"{sum(out.converged)}/{self.cfg.repeat} from the records"
                )
            stats = [v for var in summary.variables for v in (var.reference, var.mean_converged, var.mean_abs_pct_err)]
            if not _finite([v for v in stats if v is not None]):
                out.errors.append("summary holds non-finite statistics")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return out


class ExternalReference(Workload):
    name = "external-reference"
    active = frozenset({"external", "mda", "evolution", "problems"})
    idle = frozenset({"gp", "paths"})
    # Last-ulp differences between libm in the children and numpy in-process.
    AGREE_RTOL = 1e-9

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.sellar = sellar_problem()
        if tiny:  # resolve_reference fixes its DE, so shrink the design box around the optimum instead
            self.sellar = replace(self.sellar, z_bounds=[[0.0, 1.0], [2.0, 3.2], [0.0, 1.0]])
        self.tolerance = 1e-2 if tiny else 1e-10
        self.seeds = {"de_seed": 0}  # fixed inside resolve_reference
        self.handles = []
        self._affinity = None
        self._oracle = None

    def setup(self):
        # The solve is a strict request/response chain, so one CPU loses no
        # parallelism; across CPUs each row pays a wakeup whose latency on a
        # shared virtual machine swings with the host's load. Children inherit it.
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        sellar = self.sellar
        child = [sys.executable, str(BENCH_DIR / "sellar_child.py")]
        spec = {
            "z_bounds": sellar.z_bounds.tolist(),
            "y_bounds": sellar.y_bounds.tolist(),
            "disciplines": [
                {"cmd": child + [d.name], "produces": d.produces.tolist(), "consumes": d.consumes.tolist()}
                for d in sellar.disciplines
            ],
            "objective_cmd": child + ["objective"],
            "reference": {"z": sellar.reference.z.tolist(), "objective": sellar.reference.objective},
        }
        self.problem = load_external_problem(spec)
        # The library closes children only when they are garbage-collected; keep
        # a handle on each (the objective's lives in its closure) to close them here.
        self.handles = [d.fn for d in self.problem.disciplines]
        self.handles.append(getclosurevars(self.problem.objective).nonlocals["obj"])
        for d in self.problem.disciplines:  # one round trip each: the child is up and answering
            d.fn(np.zeros((1, self.problem.d_z)), np.ones((1, d.consumes.size)))
        self.handles[-1](np.zeros((1, self.problem.d_z)), np.ones((1, self.problem.d_y)))

    def run(self, in_process=False):
        return resolve_reference(self.problem, recompute=True, tolerance=self.tolerance)

    def check(self, ref):
        out = Outcome()
        sellar = self.sellar
        if self._oracle is None:
            self._oracle = resolve_reference(sellar, recompute=True, tolerance=self.tolerance)
        if not (_finite(ref.z) and math.isfinite(ref.objective)):
            out.errors.append("non-finite reference design or objective")
        elif not (
            np.allclose(ref.z, self._oracle.z, rtol=self.AGREE_RTOL, atol=1e-12)
            and math.isclose(ref.objective, self._oracle.objective, rel_tol=self.AGREE_RTOL)
        ):
            out.errors.append(
                f"external optimum {ref.z.tolist()} / {ref.objective!r} disagrees with in-process "
                f"{self._oracle.z.tolist()} / {self._oracle.objective!r}"
            )
        _score(sellar, ref.z, out)
        return out

    def close(self):
        for handle in self.handles:
            handle.close()
        self.handles = []
        if self._affinity:
            os.sched_setaffinity(0, self._affinity)


WORKLOADS = {w.name: w for w in (SellarRun, ToyStudy, ExternalReference)}


def make(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](tiny=tiny)
