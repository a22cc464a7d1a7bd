"""Fixed-point solution of coupled disciplines by Gauss-Seidel sweeps.

Convergence is accelerated with dynamic (Aitken delta-squared) relaxation.
The engine is batch-first: many design points share one sweep loop, each
candidate carrying its own coupling state, relaxation factor and status.
A row whose residual has stopped falling is retired before the sweep cap
(a stall exit) with the cap's status. Non-convergence and evaluator
failures are reported as data so callers can penalize instead of aborting.
There is one result type, ``CouplingResult``, with one row per design
point; a solve of a single point is a batch of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DisciplineFailure",
    "MdaStatus",
    "MdaConfig",
    "CouplingResult",
    "aitken_update",
    "gauss_seidel_solve",
    "solve_batch",
]

RESIDUAL_FLOOR = 1e-12
# Aitken relaxation: the factor every row starts from, and the interval it is clamped to.
OMEGA_INIT = 0.5
OMEGA_BOUNDS = (0.05, 2.0)
# Stall exit: from sweep STALL_START on, a row whose best residual over its last
# STALL_WINDOW sweeps is not below STALL_RATIO times its best before them stops.
STALL_START = 40
STALL_WINDOW = 20
STALL_RATIO = 0.95
# Tolerance of every solve of the true problem: a true objective or a reference re-solve.
REFERENCE_TOL = 1e-10


class DisciplineFailure(RuntimeError):
    """An evaluator could not produce an output (crash, bad input, remote error)."""

    def __init__(self, message: str, kind: str = "evaluator"):
        super().__init__(message)
        self.kind = kind


class MdaStatus(enum.IntEnum):
    CONVERGED = 0
    MAX_ITERATIONS = 1
    EVALUATOR_FAILURE = 2

    def __str__(self) -> str:  # stable names for records
        return self.name.lower()


@dataclass(frozen=True)
class MdaConfig:
    """Tolerance, sweep cap and whether to apply Aitken relaxation, for one coupled solve."""

    tolerance: float = REFERENCE_TOL
    max_iterations: int = 200
    aitken: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    @classmethod
    def reference(cls, tolerance: float) -> "MdaConfig":
        """Settings of a solve of the true problem: a true objective or a reference re-solve."""
        return cls(tolerance=tolerance, max_iterations=500)


@dataclass
class CouplingResult:
    """Per-row coupling vectors, statuses and diagnostics of one coupled solve of ``n`` design points."""

    y: np.ndarray  # (n, d_y)
    status: np.ndarray  # (n,) of MdaStatus codes
    iterations: np.ndarray  # (n,)
    failure: str | None = None


def aitken_update(omega: np.ndarray, delta_prev: np.ndarray, delta_curr: np.ndarray) -> np.ndarray:
    """Next relaxation factor of each row from two consecutive sweep updates.

    ``omega`` is ``(n,)``, the deltas ``(n, d_y)``. Rows with identical
    consecutive deltas keep their previous factor; every result is clamped
    into ``OMEGA_BOUNDS``.
    """
    diff = delta_curr - delta_prev
    denom = np.einsum("ij,ij->i", diff, diff)
    num = np.einsum("ij,ij->i", delta_prev, diff)
    moved = denom > 0.0
    omega = np.where(moved, -omega * np.divide(num, denom, out=np.zeros_like(num), where=moved), omega)
    # np.clip's values, without its Python-level dispatch on every sweep.
    return np.minimum(np.maximum(omega, OMEGA_BOUNDS[0]), OMEGA_BOUNDS[1])


def solve_batch(disciplines, Z: np.ndarray, y0: np.ndarray, cfg: MdaConfig) -> CouplingResult:
    """Run Gauss-Seidel sweeps for a batch of design points simultaneously.

    Each sweep evaluates the disciplines in order, every discipline seeing
    the freshest values produced earlier in the same sweep. The full sweep
    update is then relaxed per candidate. Candidates leave the active set
    when their maximum relative component change drops below the tolerance,
    when an evaluator returns a non-finite output (EVALUATOR_FAILURE, the
    last valid iterate is kept) or when the sweep budget runs out.

    Stall exit: from sweep ``STALL_START`` on, a row that has not converged
    leaves as MAX_ITERATIONS, at its current iterate and with ``iterations``
    set to that sweep, once its smallest residual over the last
    ``STALL_WINDOW`` sweeps is at least ``STALL_RATIO`` times its smallest
    residual before them. Convergence is checked first, so a row that meets
    the tolerance on that sweep counts as converged.

    Failures: a non-finite output row fails that row only, and is the only
    per-row failure channel. A ``DisciplineFailure`` raised by an evaluator
    fails every row still active in that call, with one failure note.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n = Z.shape[0]
    y = np.array(np.atleast_2d(np.asarray(y0, dtype=float)), copy=True)
    if y.shape[0] == 1 and n > 1:
        y = np.repeat(y, n, axis=0)
    if y.shape[0] != n:
        raise ValueError("y0 and Z disagree on batch size")

    status = np.full(n, int(MdaStatus.MAX_ITERATIONS))
    iterations = np.full(n, cfg.max_iterations)
    failure_note = None

    # The active rows' state, kept compacted in batch order: ``idx`` maps each
    # active row back to the batch. Rows are scattered out and the rest
    # gathered only when some row leaves, not on every sweep.
    idx = np.arange(n)
    Z_act, y_act = Z[idx], y[idx]
    omega = np.full(n, OMEGA_INIT if cfg.aitken else 1.0)
    delta_prev = None  # every active row has one from sweep 2 on
    # Stall exit state: a ring of the last STALL_WINDOW residuals (slot
    # ``(sweep - 1) % STALL_WINDOW``) and the best residual before them.
    recent = np.full((n, STALL_WINDOW), np.inf)
    best_before = np.full(n, np.inf)

    def retire(gone, code, sweep):
        """Record the active rows ``gone`` as finished with ``code`` at their current iterate, and drop them."""
        nonlocal idx, Z_act, y_act, y_new, omega, delta_prev, recent, best_before
        rows = idx[gone]
        status[rows] = int(code)
        iterations[rows] = sweep
        y[rows] = y_act[gone]
        keep = ~gone
        idx, Z_act, y_act, y_new, omega = idx[keep], Z_act[keep], y_act[keep], y_new[keep], omega[keep]
        recent, best_before = recent[keep], best_before[keep]
        if delta_prev is not None:
            delta_prev = delta_prev[keep]

    for sweep in range(1, cfg.max_iterations + 1):
        if idx.size == 0:
            break
        y_new = y_act.copy()
        failed = None
        with np.errstate(all="ignore"):
            for disc in disciplines:
                try:
                    out = np.asarray(disc.fn(Z_act, y_new[:, disc.consumes]), dtype=float)
                except DisciplineFailure as exc:
                    failed = np.ones(idx.size, dtype=bool)
                    failure_note = failure_note or f"discipline {disc.name!r}: {exc}"
                    break
                out = out.reshape(idx.size, disc.produces.size)
                if not np.isfinite(out).all():
                    bad = ~np.isfinite(out).all(axis=1)
                    failed = bad if failed is None else failed | bad
                    failure_note = failure_note or f"discipline {disc.name!r} returned non-finite output"
                y_new[:, disc.produces] = out

        if failed is not None:  # a failed row keeps its last valid iterate
            retire(failed, MdaStatus.EVALUATOR_FAILURE, sweep)

        delta = y_new - y_act
        if cfg.aitken and delta_prev is not None:
            omega = aitken_update(omega, delta_prev, delta)
        applied = omega[:, None] * delta
        y_act = y_act + applied
        res_act = (np.abs(applied) / np.maximum(np.abs(y_act), RESIDUAL_FLOOR)).max(axis=1)
        delta_prev = delta
        slot = (sweep - 1) % STALL_WINDOW
        if sweep > STALL_WINDOW:  # the residual of sweep ``sweep - STALL_WINDOW`` leaves the window
            best_before = np.minimum(best_before, recent[:, slot])
        recent[:, slot] = res_act

        done = res_act <= cfg.tolerance
        if done.any():
            retire(done, MdaStatus.CONVERGED, sweep)
        if sweep >= STALL_START:
            stalled = recent.min(axis=1) >= STALL_RATIO * best_before
            if stalled.any():
                retire(stalled, MdaStatus.MAX_ITERATIONS, sweep)

    y[idx] = y_act
    return CouplingResult(y=y, status=status, iterations=iterations, failure=failure_note)


def gauss_seidel_solve(disciplines, z, y0, cfg: MdaConfig) -> CouplingResult:
    """Solve the coupled system for a single design point: ``solve_batch`` on a batch of one.

    Every field of the result keeps its batch axis; read row 0.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return solve_batch(disciplines, z[None, :], np.asarray(y0, dtype=float)[None, :], cfg)
