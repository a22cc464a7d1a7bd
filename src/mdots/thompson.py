"""The outer refinement loop: optimize posterior draws, evaluate, refit, repeat.

Each inner step draws fresh sample paths for every discipline, finds the
design point minimizing the penalized coupled objective of those draws,
evaluates one true discipline at the proposal and refits that discipline's
surrogates with the new pair. After the refinement budget is spent, the
final design comes from the same machinery run on posterior means.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .evolution import DeConfig, PenaltySpec, de_minimize, penalized_mdo_objective
from .gp import TrainedSurrogate, fit, posterior_mean
from .mda import DisciplineFailure, MdaConfig, MdaStatus, gauss_seidel_solve
from .paths import draw_path, eval_path
from .problems import MdoProblem, TrainingSet, initial_doe_training_sets

__all__ = [
    "GpConfig",
    "Seeds",
    "RunConfig",
    "SurrogateSet",
    "RefinementEntry",
    "IterationEntry",
    "RunRecord",
    "fit_surrogate_set",
    "refine_discipline",
    "path_evaluators",
    "mean_evaluators",
    "solve_random_mdo",
    "solve_surrogate_mdo",
    "run_mdo_ts",
    "convergence_check",
]

SCHEMA_VERSION = 1
CONVERGENCE_THRESHOLD = 0.01


@dataclass(frozen=True)
class GpConfig:
    nugget: float = 1e-7
    restarts: int = 4
    isotropic: bool = False


@dataclass(frozen=True)
class Seeds:
    """Independent streams: DoE + refits, path draws, and optimizer runs."""

    doe: int = 0
    paths: int = 1_000_000
    de: int = 2_000_000


@dataclass(frozen=True)
class RunConfig:
    n_doe: int = 5
    n_iter: int = 10
    n_features: int = 1000
    gp: GpConfig = GpConfig()
    de: DeConfig = DeConfig()
    mda_surrogate: MdaConfig = MdaConfig(tolerance=1e-2, max_iterations=100)
    mda_reference: MdaConfig = MdaConfig(tolerance=1e-10, max_iterations=200)
    penalty: PenaltySpec = PenaltySpec()
    seeds: Seeds = Seeds()


@dataclass
class RefinementEntry:
    iteration: int
    discipline: int
    x: np.ndarray
    y: np.ndarray


@dataclass
class SurrogateSet:
    """Per-discipline training data and one fitted surrogate per scalar output."""

    data: list[TrainingSet]
    models: list[list[TrainedSurrogate]]
    log: list[RefinementEntry] = field(default_factory=list)


def fit_surrogate_set(problem: MdoProblem, training_sets, gp_cfg: GpConfig, rng) -> SurrogateSet:
    rng = np.random.default_rng(rng)
    models = []
    for ts in training_sets:
        models.append(
            [
                fit(
                    ts.inputs,
                    ts.targets[:, j],
                    nugget=gp_cfg.nugget,
                    restarts=gp_cfg.restarts,
                    rng=rng,
                    isotropic=gp_cfg.isotropic,
                )
                for j in range(ts.targets.shape[1])
            ]
        )
    return SurrogateSet(data=list(training_sets), models=models)


def refine_discipline(sset: SurrogateSet, m: int, x_new, y_new, gp_cfg: GpConfig, rng, iteration: int) -> None:
    """Append one (input, output) pair to discipline ``m`` and refit its surrogates.

    Hyperparameters are re-optimized from scratch, warm-started at the
    previous optimum in addition to the standard restarts.
    """
    rng = np.random.default_rng(rng)
    x_new = np.atleast_1d(np.asarray(x_new, dtype=float))
    y_new = np.atleast_1d(np.asarray(y_new, dtype=float))
    ts = sset.data[m]
    inputs = np.vstack([ts.inputs, x_new])
    targets = np.vstack([ts.targets, y_new])
    sset.data[m] = TrainingSet(inputs=inputs, targets=targets)
    sset.models[m] = [
        fit(
            inputs,
            targets[:, j],
            nugget=gp_cfg.nugget,
            restarts=gp_cfg.restarts,
            rng=rng,
            isotropic=gp_cfg.isotropic,
            warm_start=sset.models[m][j].params,
        )
        for j in range(targets.shape[1])
    ]
    sset.log.append(RefinementEntry(iteration=iteration, discipline=m, x=x_new, y=y_new))


def _stacked(fns):
    def evaluator(Z, Yin):
        X = np.concatenate([np.atleast_2d(Z), np.atleast_2d(Yin)], axis=1)
        cols = [f(X) for f in fns]
        return cols[0][:, None] if len(cols) == 1 else np.column_stack(cols)

    return evaluator


def path_evaluators(sset: SurrogateSet, n_features: int, rng):
    """Draw fresh sample paths for every discipline output; return batch evaluators.

    Paths for all outputs are drawn from the same refinement state in a
    fixed order, so one seed pins the complete random problem.
    """
    rng = np.random.default_rng(rng)
    evaluators = []
    all_paths = []
    for models in sset.models:
        paths = [draw_path(s, n_features, rng) for s in models]
        all_paths.append(paths)
        evaluators.append(_stacked([lambda X, p=p: eval_path(p, X) for p in paths]))
    return evaluators, all_paths


def mean_evaluators(sset: SurrogateSet):
    """Posterior-mean evaluators, one per discipline."""
    return [
        _stacked([lambda X, s=s: posterior_mean(s, X) for s in models])
        for models in sset.models
    ]


def solve_random_mdo(evaluators, problem: MdoProblem, penalty: PenaltySpec, de_cfg: DeConfig, mda_cfg: MdaConfig):
    """Minimize the penalized objective of one set of drawn evaluators.

    Returns the winning design point, the coupling state of one re-solve at
    that point (last iterate when unconverged) and the penalized value.
    """
    objective = penalized_mdo_objective(evaluators, problem, penalty, mda_cfg)
    result = de_minimize(objective, problem.z_bounds, de_cfg, vectorized=True)
    bound = tuple(replace(d, fn=e) for d, e in zip(problem.disciplines, evaluators))
    state = gauss_seidel_solve(bound, result.z, problem.y_midpoint(), mda_cfg)
    return result.z, state, result.value


def solve_surrogate_mdo(sset: SurrogateSet, problem: MdoProblem, penalty: PenaltySpec, de_cfg: DeConfig, mda_cfg: MdaConfig):
    """Minimize the penalized objective of the posterior-mean system."""
    objective = penalized_mdo_objective(mean_evaluators(sset), problem, penalty, mda_cfg)
    result = de_minimize(objective, problem.z_bounds, de_cfg, vectorized=True)
    return result.z, result.value


def convergence_check(f_ref: float, f_found: float) -> bool:
    """Relative-deviation test against a reference objective value."""
    if f_ref == 0.0:
        raise ValueError("reference objective of zero leaves the relative criterion undefined")
    return abs((f_ref - f_found) / f_ref) < CONVERGENCE_THRESHOLD


@dataclass
class IterationEntry:
    """One inner step: proposal, coupling state, true evaluation, refinement flag."""

    iteration: int
    discipline: int
    z_hat: list
    y_hat: list
    y_refine: list
    clamped: bool
    mda_status: str
    random_value: float
    y_true: list | None
    refined: bool


@dataclass
class RunRecord:
    """Everything one run produced, JSON-ready (plain lists and floats)."""

    schema_version: int
    problem: str
    replicate: int
    config: dict
    doe: list
    iterations: list
    final_z: list
    final_value: float
    timing: dict

    def evaluations_per_discipline(self) -> list[int]:
        counts = [len(d["inputs"]) for d in self.doe]
        for entry in self.iterations:
            if entry.refined:
                counts[entry.discipline] += 1
        return counts


def run_mdo_ts(problem: MdoProblem, config: RunConfig, replicate: int = 0, config_echo: dict | None = None) -> RunRecord:
    """Run the full loop: DoE, n_iter refinement rounds, final mean solve.

    Every inner step refines exactly one discipline; a failed true
    evaluation at a proposal skips that refinement with a warning and the
    run continues. The record embeds the resolved config so the run can be
    re-launched from the file alone.
    """
    if config.n_doe < 2:
        raise ValueError("n_doe must be at least 2")
    if config.n_iter < 0:
        raise ValueError("n_iter must be non-negative")

    t0 = time.perf_counter()
    doe_rng = np.random.default_rng(config.seeds.doe)
    path_rng = np.random.default_rng(config.seeds.paths)

    doe_sets = initial_doe_training_sets(problem, config.n_doe, doe_rng)
    sset = fit_surrogate_set(problem, doe_sets, config.gp, doe_rng)
    t_doe = time.perf_counter()

    lo, hi = problem.y_bounds[:, 0], problem.y_bounds[:, 1]
    entries: list[IterationEntry] = []
    solve_index = 0
    for n in range(1, config.n_iter + 1):
        for m in range(problem.n_disciplines):
            evaluators, _ = path_evaluators(sset, config.n_features, path_rng)
            de_cfg = replace(config.de, seed=config.seeds.de + solve_index)
            solve_index += 1
            z_hat, state, value = solve_random_mdo(evaluators, problem, config.penalty, de_cfg, config.mda_surrogate)

            cons = problem.disciplines[m].consumes
            y_cons = state.y[cons]
            y_refine = np.clip(y_cons, lo[cons], hi[cons])
            clamped = state.status != MdaStatus.CONVERGED or bool(np.any(y_refine != y_cons))

            y_true = None
            refined = False
            try:
                with np.errstate(all="ignore"):
                    out = np.asarray(
                        problem.disciplines[m].fn(z_hat[None, :], y_refine[None, :]), dtype=float
                    ).reshape(-1)
            except DisciplineFailure as exc:
                out = np.array([np.nan])
                warnings.warn(f"discipline {m} failed at iteration {n}: {exc}", stacklevel=2)
            if np.all(np.isfinite(out)):
                refine_discipline(sset, m, np.concatenate([z_hat, y_refine]), out, config.gp, doe_rng, n)
                y_true = out.tolist()
                refined = True
            else:
                warnings.warn(
                    f"skipping refinement of discipline {m} at iteration {n} (failed evaluation)",
                    stacklevel=2,
                )

            entries.append(
                IterationEntry(
                    iteration=n,
                    discipline=m,
                    z_hat=z_hat.tolist(),
                    y_hat=state.y.tolist(),
                    y_refine=y_refine.tolist(),
                    clamped=clamped,
                    mda_status=str(state.status),
                    random_value=float(value),
                    y_true=y_true,
                    refined=refined,
                )
            )
    t_loop = time.perf_counter()

    de_cfg = replace(config.de, seed=config.seeds.de + solve_index)
    z_star, value_star = solve_surrogate_mdo(sset, problem, config.penalty, de_cfg, config.mda_surrogate)
    t_final = time.perf_counter()

    if config_echo is None:
        config_echo = {"problem": problem.problem_id, **asdict(config)}
    return RunRecord(
        schema_version=SCHEMA_VERSION,
        problem=problem.problem_id,
        replicate=replicate,
        config=config_echo,
        doe=[{"inputs": ts.inputs.tolist(), "targets": ts.targets.tolist()} for ts in doe_sets],
        iterations=entries,
        final_z=z_star.tolist(),
        final_value=float(value_star),
        timing={
            "doe_seconds": t_doe - t0,
            "loop_seconds": t_loop - t_doe,
            "final_solve_seconds": t_final - t_loop,
            "total_seconds": t_final - t0,
        },
    )
