"""Differential evolution over the design box, plus the penalized coupled objective.

The optimizer is rand/1/bin with binomial crossover, reflection at box
faces and generation-level (deferred) selection, so a whole trial
population can be scored in one vectorized call. A candidate's score comes
from solving the coupled system on whatever evaluators the caller supplies
(true disciplines, posterior means or path samples); non-convergence and
coupling-bound violations turn into additive penalties rather than errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mda import MdaConfig, MdaStatus, solve_batch
from .problems import MdoProblem, lhs

__all__ = ["DeConfig", "DeResult", "de_minimize", "penalized_mdo_objective"]

# Storn & Price's rand/1/bin values: mutation factor F, crossover rate CR, and
# a population of 10 per design variable with a floor of 30.
MUTATION = 0.7
CROSSOVER = 0.9
POPULATION_PER_VARIABLE = 10
MIN_POPULATION = 30


@dataclass(frozen=True)
class DeConfig:
    """Differential evolution stop rule and seed.

    The defaults suit a Thompson proposal, which the next true evaluation
    only needs to a few digits: stop once the best value has gained less
    than an absolute ``tol`` over ``window`` generations.
    """

    max_generations: int = 300
    window: int = 20
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.max_generations < 1 or self.window < 1:
            raise ValueError("max_generations and window must be positive")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("DE tolerance must be finite and positive")

    @classmethod
    def reference(cls) -> "DeConfig":
        """Settings of a reference solve of the true problem: longer and tighter than a proposal's."""
        return cls(max_generations=400, window=40, tol=1e-8, seed=0)


@dataclass
class DeResult:
    z: np.ndarray
    value: float
    generations: int
    evaluations: int


def _reflect(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # Fold back once at the faces. With parents inside the box a mutant lies at
    # most MUTATION (< 1) box widths outside a face, so one fold lands inside;
    # the clip only guards against rounding.
    x = np.where(x < lo, 2.0 * lo - x, np.where(x > hi, 2.0 * hi - x, x))
    return np.clip(x, lo, hi)


def _scores(objective, pop: np.ndarray) -> np.ndarray:
    vals = np.asarray(objective(pop), dtype=float)
    return np.where(np.isfinite(vals), vals, np.inf)


def de_minimize(objective, bounds, cfg: DeConfig) -> DeResult:
    """Minimize over a box; deterministic given the config seed.

    ``objective`` scores a whole population at once: it takes ``(n, d)``
    and returns ``(n,)``. Stops after ``max_generations`` or once the best
    value has improved by less than ``tol`` over the last ``window``
    generations. Non-finite objective values are treated as +inf.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or not np.all(np.isfinite(bounds)):
        raise ValueError("bounds must be a finite (d, 2) box")
    lo, hi = bounds[:, 0], bounds[:, 1]
    d = bounds.shape[0]
    n_pop = max(POPULATION_PER_VARIABLE * d, MIN_POPULATION)
    rng = np.random.default_rng(cfg.seed)

    pop = lhs(bounds, n_pop, rng)
    vals = _scores(objective, pop)
    history = [float(vals.min())]

    rows = np.arange(n_pop)[:, None]
    picks = np.empty((n_pop, 3), dtype=np.int64)
    cross = np.empty((n_pop, d), dtype=bool)
    for _ in range(cfg.max_generations):
        # Per-individual draws in a fixed order (parents, crossover mask, forced
        # gene); the arithmetic on them then runs on the whole population.
        for i in range(n_pop):
            picks[i] = rng.choice(n_pop - 1, size=3, replace=False)
            cross[i] = rng.random(d) < CROSSOVER
            cross[i, rng.integers(d)] = True
        parents = picks + (picks >= rows)  # skip the individual itself
        mutants = pop[parents[:, 0]] + MUTATION * (pop[parents[:, 1]] - pop[parents[:, 2]])
        trials = np.where(cross, _reflect(mutants, lo, hi), pop)
        trial_vals = _scores(objective, trials)
        better = trial_vals <= vals
        pop[better] = trials[better]
        vals[better] = trial_vals[better]
        history.append(float(vals.min()))
        if len(history) > cfg.window and history[-1 - cfg.window] - history[-1] < cfg.tol:
            break

    best = int(np.argmin(vals))
    # One history entry per scored population: the initial one, then one per generation.
    return DeResult(
        z=pop[best].copy(),
        value=float(vals[best]),
        generations=len(history) - 1,
        evaluations=n_pop * len(history),
    )


# The additive penalties of penalized_mdo_objective.
PENALTY_BASE = 1000.0
BOUND_WEIGHT = 100.0


def penalized_mdo_objective(disciplines, problem: MdoProblem, mda_cfg: MdaConfig):
    """Wrap bound disciplines (``problem.disciplines`` or ``problem.bind(evaluators)``) into a design-space objective.

    For each candidate the coupled system is solved from the coupling-box
    midpoint. Converged, in-bounds solutions score the plain objective;
    converged out-of-bounds ones add ``PENALTY_BASE`` plus ``BOUND_WEIGHT``
    times their summed relative violation; unconverged ones score
    ``PENALTY_BASE`` plus the objective at the last iterate when that is
    finite. Unconverged covers rows that hit the sweep cap, rows the
    solver's stall exit retired earlier (both ``MAX_ITERATIONS``, scored at
    the iterate they stopped at) and failed rows. Anything non-finite
    becomes +inf.

    The returned callable takes a batch of design points ``(n, d_z)`` and
    returns ``(n,)``.
    """
    lo, hi = problem.y_bounds[:, 0], problem.y_bounds[:, 1]
    width = hi - lo
    midpoint = problem.y_midpoint()

    def objective(Z):
        Z = np.asarray(Z, dtype=float)
        res = solve_batch(disciplines, Z, midpoint[None, :], mda_cfg)
        with np.errstate(all="ignore"):
            f = np.asarray(problem.objective(Z, res.y), dtype=float)
        viol = (np.maximum(lo - res.y, 0.0) + np.maximum(res.y - hi, 0.0)) / width
        viol = viol.sum(axis=1)
        in_bounds = np.all((res.y >= lo) & (res.y <= hi), axis=1)
        converged = res.status == int(MdaStatus.CONVERGED)
        f_fallback = np.where(np.isfinite(f), f, 0.0)

        value = np.where(
            converged & in_bounds,
            f,
            np.where(converged, f + PENALTY_BASE + BOUND_WEIGHT * viol, PENALTY_BASE + f_fallback),
        )
        return np.where(np.isfinite(value), value, np.inf)

    return objective
