"""The outer refinement loop: optimize posterior draws, evaluate, refit, repeat.

Each iteration draws fresh sample paths for every discipline, finds the
design point minimizing the penalized coupled objective of those draws,
solves the drawn coupling at that proposal once, and then evaluates every
true discipline there, in order, each at its consumed couplings, refitting
its surrogates with the new pair. Each discipline has its own surrogate, so
no evaluation needs a full MDA of the true system. After the refinement
budget is spent, the final design comes from the same machinery run on
posterior means.

``ExperimentConfig`` holds every setting of a run or a study;
``replicate_seeds`` derives a replicate's random streams from its seed, and
``de_seed`` the stream of each design solve.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .evolution import BOUND_WEIGHT, CROSSOVER, MUTATION, PENALTY_BASE, DeConfig, de_minimize, penalized_mdo_objective
from .gp import DEFAULT_NUGGET, DEFAULT_RESTARTS, TrainedSurrogate, fit, posterior_mean
from .mda import REFERENCE_TOL, MdaConfig, MdaStatus, evaluate, gauss_seidel_solve
from .paths import DEFAULT_FEATURES, draw_path, eval_path
from .problems import MdoProblem, TrainingSet, initial_doe_training_sets
from .records import SCHEMA_VERSION, IterationEntry, RunRecord

__all__ = [
    "ExperimentConfig",
    "Seeds",
    "replicate_seeds",
    "de_seed",
    "SurrogateSet",
    "fit_surrogate_set",
    "refine_discipline",
    "path_evaluators",
    "mean_evaluators",
    "solve_mdo",
    "run_mdo_ts",
    "convergence_check",
]

log = logging.getLogger(__name__)

CONVERGENCE_THRESHOLD = 0.01
PATH_SEED_OFFSET = 1_000_000
DE_SEED_OFFSET = 2_000_000
# Settings of every coupled solve of surrogate or path systems.
SURROGATE_MDA = MdaConfig(tolerance=1e-2, max_iterations=100)

# Former settings and the constant each became. Record headers written while they
# were settings hold them; ``from_dict`` accepts one only at its constant.
RETIRED_SETTINGS = {
    "mda_tol": SURROGATE_MDA.tolerance,
    "mda_max_iterations": SURROGATE_MDA.max_iterations,
    "gp_nugget": DEFAULT_NUGGET,
    "gp_isotropic": False,
    "de_population": None,  # None stood for the population rule, now the only one
    "de_mutation": MUTATION,
    "de_crossover": CROSSOVER,
    "penalty_base": PENALTY_BASE,
    "penalty_bound_weight": BOUND_WEIGHT,
    "reference_tol": REFERENCE_TOL,
    "gp_restarts": DEFAULT_RESTARTS,
    "de_window": DeConfig.window,
    "de_tol": DeConfig.tol,
    "recompute_reference": False,  # a run is judged by its problem's full-precision reference
}
# The problems ``study.build_problem`` builds; ``external`` also needs ``external_cmd``.
PROBLEMS = ("toy", "sellar", "external")
# Settings that count something: each a whole number (``workers`` may also be None) at or above its least value.
COUNT_SETTINGS = {"n_doe": 2, "n_iter": 0, "repeat": 1, "seed": 0, "n_features": 1, "de_max_generations": 1,
                  "workers": 1}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings for a run or a study; everything JSON-friendly.

    A run record's header is this config as a dict, so a record re-launches
    from its file alone.
    """

    problem: str = "sellar"
    external_cmd: str | None = None
    n_doe: int = 5
    n_iter: int = 10
    repeat: int = 1
    seed: int = 0
    n_features: int = DEFAULT_FEATURES
    out: str = "runs"
    workers: int | None = None
    de_max_generations: int = DeConfig.max_generations

    def __post_init__(self):
        # A config file can give any setting any JSON type.
        for name, wanted, ok in (
            ("out", "a string", isinstance(self.out, str)),
            ("external_cmd", "a string or null", self.external_cmd is None or isinstance(self.external_cmd, str)),
        ):
            if not ok:
                raise ValueError(f"{name} must be {wanted}, got {getattr(self, name)!r}")
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}, not one of {', '.join(PROBLEMS)}")
        if self.problem == "external" and not self.external_cmd:
            raise ValueError("problem 'external' requires external_cmd (path to a problem spec)")
        for name, least in COUNT_SETTINGS.items():
            value = getattr(self, name)
            if name == "workers" and value is None:
                continue
            # bool is an int subclass, but a JSON ``true`` is no count.
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}")

    @classmethod
    def from_dict(cls, settings: dict) -> "ExperimentConfig":
        """The config a record's header holds; a setting this version does not know is a ValueError.

        A retired setting (``RETIRED_SETTINGS``) is dropped when it holds the
        constant now in use; any other value is a ValueError naming it,
        because that run cannot be reproduced.
        """
        settings = dict(settings)
        for name, constant in RETIRED_SETTINGS.items():
            value = settings.pop(name, constant)
            if value != constant:
                raise ValueError(
                    f"record config sets retired setting {name!r} to {value!r}; this version fixes it at {constant!r}"
                )
        unknown = sorted(set(settings) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"record config has unknown setting(s): {', '.join(map(repr, unknown))}")
        return cls(**settings)

    def de_config(self, seed: np.random.SeedSequence) -> DeConfig:
        return DeConfig(max_generations=self.de_max_generations, seed=seed)


@dataclass(frozen=True)
class Seeds:
    """Independent streams: DoE + refits, path draws, and optimizer runs."""

    doe: int
    paths: int
    de: int


def replicate_seeds(seed_base: int, k: int) -> Seeds:
    """Replicate ``k``: DoE stream at base+k, paths and optimizer in offset bands."""
    return Seeds(doe=seed_base + k, paths=seed_base + PATH_SEED_OFFSET + k, de=seed_base + DE_SEED_OFFSET + k)


def de_seed(seeds: Seeds, j: int) -> np.random.SeedSequence:
    """The stream of a replicate's design solve ``j``: iteration ``j`` (0-based), or the final solve at ``j = n_iter``.

    One child of the replicate's optimizer seed per solve, so no two solves
    of a study share a stream, and the final solve after ``t`` iterations
    draws what a run with ``n_iter = t`` draws.
    """
    return np.random.SeedSequence(seeds.de, spawn_key=(j,))


@dataclass
class SurrogateSet:
    """Per-discipline training data and one fitted surrogate per scalar output."""

    data: list[TrainingSet]
    models: list[list[TrainedSurrogate]]


def _fit_outputs(ts: TrainingSet, rng, warm: list[TrainedSurrogate] | None = None):
    return [
        fit(ts.inputs, ts.targets[:, j], rng=rng, warm_start=None if warm is None else warm[j].params)
        for j in range(ts.targets.shape[1])
    ]


def fit_surrogate_set(training_sets, rng) -> SurrogateSet:
    rng = np.random.default_rng(rng)
    return SurrogateSet(data=list(training_sets), models=[_fit_outputs(ts, rng) for ts in training_sets])


def refine_discipline(sset: SurrogateSet, m: int, x_new, y_new, rng) -> None:
    """Append one (input, output) pair to discipline ``m`` and refit its surrogates.

    Hyperparameters are re-optimized from scratch, warm-started at the
    previous optimum in addition to ``fit``'s default restarts.
    """
    rng = np.random.default_rng(rng)
    x_new = np.atleast_1d(np.asarray(x_new, dtype=float))
    y_new = np.atleast_1d(np.asarray(y_new, dtype=float))
    ts = sset.data[m]
    ts = TrainingSet(inputs=np.vstack([ts.inputs, x_new]), targets=np.vstack([ts.targets, y_new]))
    sset.data[m] = ts
    sset.models[m] = _fit_outputs(ts, rng, warm=sset.models[m])


def _stacked(query, anchors):
    """One discipline's evaluator: ``query(anchor, X)`` per output on the rows ``X = [Z, Yin]``."""

    def evaluator(Z, Yin):
        X = np.concatenate([Z, Yin], axis=1)
        return np.column_stack([query(a, X) for a in anchors])

    return evaluator


def path_evaluators(sset: SurrogateSet, n_features: int, rng):
    """Draw fresh sample paths for every discipline output; return batch evaluators.

    Paths for all outputs are drawn from the same refinement state in a
    fixed order, so one seed pins the complete random problem.
    """
    rng = np.random.default_rng(rng)
    return [_stacked(eval_path, [draw_path(s, n_features, rng) for s in models]) for models in sset.models]


def mean_evaluators(sset: SurrogateSet):
    """Posterior-mean evaluators, one per discipline."""
    return [_stacked(posterior_mean, models) for models in sset.models]


def solve_mdo(disciplines, problem: MdoProblem, de_cfg: DeConfig):
    """Minimize the penalized coupled objective of bound disciplines: ``problem.bind`` of drawn paths or posterior means.

    Returns the winning design point and its penalized value.
    """
    result = de_minimize(penalized_mdo_objective(disciplines, problem, SURROGATE_MDA), problem.z_bounds, de_cfg)
    return result.z, result.value


def convergence_check(f_ref: float, f_found: float) -> bool:
    """Relative-deviation test against a reference objective value."""
    if f_ref == 0.0:
        raise ValueError("reference objective of zero leaves the relative criterion undefined")
    return abs((f_ref - f_found) / f_ref) < CONVERGENCE_THRESHOLD


def run_mdo_ts(problem: MdoProblem, cfg: ExperimentConfig, replicate: int = 0) -> RunRecord:
    """Run the full loop: DoE, n_iter refinement rounds, final mean solve.

    Each round makes one design solve on one drawn path system and one
    coupled re-solve at its proposal, then evaluates and refits every
    discipline in order at that proposal, recording one entry per
    discipline; so each discipline gets ``n_doe + n_iter`` true evaluations.
    A failed true evaluation skips that discipline's refinement with one
    WARNING on the ``mdots.thompson`` logger that names the cause, and the
    run continues. The seeds are those of replicate ``replicate`` of
    ``cfg.seed``, design solve ``j`` taking ``de_seed(seeds, j)``. The
    record embeds the config, with ``problem`` set to the problem's id, so
    the run can be re-launched from the file alone.
    """
    seeds = replicate_seeds(cfg.seed, replicate)
    t0 = time.perf_counter()
    doe_rng = np.random.default_rng(seeds.doe)
    path_rng = np.random.default_rng(seeds.paths)

    doe_sets = initial_doe_training_sets(problem, cfg.n_doe, doe_rng)
    sset = fit_surrogate_set(doe_sets, doe_rng)
    t_doe = time.perf_counter()

    lo, hi = problem.y_bounds[:, 0], problem.y_bounds[:, 1]
    entries: list[IterationEntry] = []
    for j in range(cfg.n_iter):
        disciplines = problem.bind(path_evaluators(sset, cfg.n_features, path_rng))
        z_hat, value = solve_mdo(disciplines, problem, cfg.de_config(de_seed(seeds, j)))
        # The coupling at the proposal: a one-row re-solve (last iterate when unconverged).
        state = gauss_seidel_solve(disciplines, z_hat, problem.y_midpoint(), SURROGATE_MDA)
        y_hat, status = state.y[0], MdaStatus(int(state.status[0]))

        for m, discipline in enumerate(problem.disciplines):
            cons = discipline.consumes
            y_cons = y_hat[cons]
            y_refine = np.clip(y_cons, lo[cons], hi[cons])
            clamped = status != MdaStatus.CONVERGED or bool(np.any(y_refine != y_cons))

            out, _, note = evaluate(discipline, z_hat[None, :], y_refine[None, :])
            refined = note is None
            if refined:
                refine_discipline(sset, m, np.concatenate([z_hat, y_refine]), out[0], doe_rng)
            else:
                log.warning("skipping refinement of discipline %d at iteration %d: %s", m, j + 1, note)

            entries.append(
                IterationEntry(
                    iteration=j + 1,
                    discipline=m,
                    z_hat=z_hat.tolist(),
                    y_hat=y_hat.tolist(),
                    y_refine=y_refine.tolist(),
                    clamped=clamped,
                    mda_status=str(status),
                    random_value=float(value),
                    y_true=out[0].tolist() if refined else None,
                    refined=refined,
                )
            )
    t_loop = time.perf_counter()

    z_star, value_star = solve_mdo(problem.bind(mean_evaluators(sset)), problem, cfg.de_config(de_seed(seeds, cfg.n_iter)))
    t_final = time.perf_counter()

    return RunRecord(
        schema_version=SCHEMA_VERSION,
        problem=problem.problem_id,
        replicate=replicate,
        config={**asdict(cfg), "problem": problem.problem_id},
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
