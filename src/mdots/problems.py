"""Benchmark coupled problems, the problem interface and DoE generation.

A problem is a set of disciplines wired through a flat coupling vector:
each discipline produces some components and consumes the components
produced by the others. Discipline callables are batch-first,
``fn(Z, Y_in) -> (n, n_out)``. A non-finite output row fails that row
alone, and is the only way to fail rows one by one. A callable that raises
``mda.DisciplineFailure`` fails every row of that call. ``mda.evaluate``
applies both rules wherever a discipline is called.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .mda import REFERENCE_TOL, MdaConfig, MdaStatus, evaluate, gauss_seidel_solve

__all__ = [
    "Discipline",
    "ReferenceSolution",
    "MdoProblem",
    "TrainingSet",
    "toy_problem",
    "sellar_problem",
    "lhs",
    "initial_doe_training_sets",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Discipline:
    """One coupled evaluator plus its wiring into the flat coupling vector."""

    name: str
    produces: np.ndarray
    consumes: np.ndarray
    fn: object  # callable (Z, Y_in) -> (n, n_out)

    def __post_init__(self):
        object.__setattr__(self, "produces", np.asarray(self.produces, dtype=int))
        object.__setattr__(self, "consumes", np.asarray(self.consumes, dtype=int))


@dataclass(frozen=True)
class ReferenceSolution:
    z: np.ndarray
    objective: float


@dataclass(frozen=True)
class MdoProblem:
    """Design-space bounds, coupling bounds, disciplines and objective.

    ``resources`` are what the problem owns and ``close()`` releases, such as
    the child processes behind external disciplines; use the problem as a
    context manager to close them.
    """

    problem_id: str
    z_bounds: np.ndarray  # (d_z, 2)
    y_bounds: np.ndarray  # (d_y, 2)
    disciplines: tuple
    objective: object  # callable (Z, Y_star) -> (n,)
    reference: ReferenceSolution | None = None
    resources: tuple = ()  # objects with a close() method

    def __post_init__(self):
        zb = np.asarray(self.z_bounds, dtype=float)
        yb = np.asarray(self.y_bounds, dtype=float)
        object.__setattr__(self, "z_bounds", zb)
        object.__setattr__(self, "y_bounds", yb)
        for b, label in ((zb, "design"), (yb, "coupling")):
            if b.ndim != 2 or b.shape[1] != 2 or not np.all(np.isfinite(b)):
                raise ValueError(f"{label} bounds must be a finite (d, 2) box")
            if not np.all(b[:, 0] < b[:, 1]):
                raise ValueError(f"{label} bounds must have lower < upper")
        produced = np.concatenate([d.produces for d in self.disciplines])
        if sorted(produced.tolist()) != list(range(yb.shape[0])):
            raise ValueError("every coupling component must be produced by exactly one discipline")
        for d in self.disciplines:
            if np.any(d.consumes < 0) or np.any(d.consumes >= yb.shape[0]):
                raise ValueError(f"discipline {d.name!r} consumes unknown coupling components")
        ref = self.reference
        if ref is not None and not (
            np.shape(np.atleast_1d(ref.z)) == (zb.shape[0],) and np.all(np.isfinite(ref.z)) and np.isfinite(ref.objective)
            and ref.objective != 0.0  # the relative convergence criterion divides by it
        ):
            raise ValueError(f"reference must hold {zb.shape[0]} finite design values and a finite, nonzero objective")

    def close(self) -> None:
        for resource in self.resources:
            resource.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @property
    def d_z(self) -> int:
        return self.z_bounds.shape[0]

    @property
    def d_y(self) -> int:
        return self.y_bounds.shape[0]

    @property
    def n_disciplines(self) -> int:
        return len(self.disciplines)

    def y_midpoint(self) -> np.ndarray:
        """Coupling-box midpoint, where every coupled solve starts."""
        return 0.5 * (self.y_bounds[:, 0] + self.y_bounds[:, 1])

    def bind(self, evaluators) -> tuple:
        """The disciplines with their callables replaced by ``evaluators``, one per discipline in order."""
        if len(evaluators) != self.n_disciplines:
            raise ValueError("one evaluator per discipline is required")
        return tuple(replace(d, fn=e) for d, e in zip(self.disciplines, evaluators))

    def true_objective(self, z, tolerance: float = REFERENCE_TOL):
        """Objective at the true coupled solution of ``z`` (NaN if unconverged), and that solve's one-row result."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        state = gauss_seidel_solve(self.disciplines, z, self.y_midpoint(), MdaConfig.reference(tolerance))
        if state.status[0] != MdaStatus.CONVERGED:
            return float("nan"), state
        return float(self.objective(z[None, :], state.y)[0]), state


def toy_problem() -> MdoProblem:
    """One design variable, two scalar disciplines with feedback coupling."""

    def f1(Z, Yin):
        return Z[:, 0] ** 2 - np.cos(Yin[:, 0] / 2.0)

    def f2(Z, Yin):
        return Z[:, 0] + Yin[:, 0]

    def objective(Z, Ystar):
        return np.cos((Ystar[:, 0] + np.exp(-Ystar[:, 1])) / np.pi) + Z[:, 0] / 20.0

    return MdoProblem(
        problem_id="toy",
        z_bounds=[[-5.0, 5.0]],
        # Covers the fixed-point range over the design box with margin.
        y_bounds=[[-2.0, 26.0], [-7.0, 31.0]],
        disciplines=(
            Discipline("f1", produces=[0], consumes=[1], fn=f1),
            Discipline("f2", produces=[1], consumes=[0], fn=f2),
        ),
        objective=objective,
        reference=ReferenceSolution(z=np.array([-2.9989]), objective=-1.1495),
    )


def sellar_problem() -> MdoProblem:
    """Unconstrained Sellar variant: three design variables, one local and one global optimum."""

    def f1(Z, Yin):
        return Z[:, 0] + Z[:, 1] ** 2 + Z[:, 2] - 0.2 * Yin[:, 0]

    def f2(Z, Yin):
        # sqrt of a negative coupling input marks the row failed (NaN).
        with np.errstate(invalid="ignore"):
            return np.sqrt(Yin[:, 0]) + Z[:, 0] + Z[:, 1]

    def objective(Z, Ystar):
        return Z[:, 0] + Z[:, 2] ** 2 + Ystar[:, 0] + np.exp(-Ystar[:, 1]) + 10.0 * np.cos(Z[:, 1])

    return MdoProblem(
        problem_id="sellar",
        z_bounds=[[0.0, 10.0], [-10.0, 10.0], [0.0, 10.0]],
        y_bounds=[[1.0, 50.0], [-5.0, 24.0]],
        disciplines=(
            Discipline("f1", produces=[0], consumes=[1], fn=f1),
            Discipline("f2", produces=[1], consumes=[0], fn=f2),
        ),
        objective=objective,
        reference=ReferenceSolution(z=np.array([0.0, 2.6345, 0.0]), objective=-2.8085),
    )


def lhs(bounds, n: int, rng) -> np.ndarray:
    """Latin hypercube sample: one point per 1/n stratum in every dimension.

    Points are strictly inside the box (uniform jitter within strata never
    lands on a face).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    bounds = np.asarray(bounds, dtype=float)
    rng = np.random.default_rng(rng)
    d = bounds.shape[0]
    u = rng.uniform(low=np.nextafter(0.0, 1.0), high=1.0, size=(n, d))
    strata = np.empty((n, d))
    for j in range(d):
        strata[:, j] = rng.permutation(n)
    frac = (strata + u) / n
    return bounds[:, 0] + frac * (bounds[:, 1] - bounds[:, 0])


@dataclass
class TrainingSet:
    """Raw training data for one discipline: inputs are (z, coupling-inputs) rows."""

    inputs: np.ndarray  # (n, d_z + n_in)
    targets: np.ndarray  # (n, n_out)


def initial_doe_training_sets(problem: MdoProblem, n_doe: int, rng) -> list[TrainingSet]:
    """Independent per-discipline DoE over the design box joined with each
    discipline's coupling-input bounds; no coupled solve is needed.

    Rows that ``mda.evaluate`` fails are dropped with one WARNING on the
    ``mdots.problems`` logger that gives its note: a non-finite row alone,
    every row of the batch on a raised ``DisciplineFailure``. Fewer than two
    survivors is an error.
    """
    if n_doe < 2:
        raise ValueError("need at least two DoE points")
    rng = np.random.default_rng(rng)
    sets = []
    for disc in problem.disciplines:
        box = np.vstack([problem.z_bounds, problem.y_bounds[disc.consumes]])
        pts = lhs(box, n_doe, rng)
        Z = pts[:, : problem.d_z]
        Yin = pts[:, problem.d_z :]
        out, failed, note = evaluate(disc, Z, Yin)
        if note is not None:
            log.warning("dropping %d failed DoE point(s) for discipline %r: %s", failed.sum(), disc.name, note)
        ok = ~failed
        if ok.sum() < 2:
            raise RuntimeError(f"fewer than two usable DoE points for discipline {disc.name!r}")
        sets.append(TrainingSet(inputs=pts[ok], targets=out[ok]))
    return sets
