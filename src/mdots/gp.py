"""Exact Gaussian-process regression with a squared-exponential kernel.

Inputs are mapped to the unit box and targets standardized before anything
touches the kernel, so hyperparameters always live in normalized space.
The Cholesky factor of the regularized kernel matrix is cached on the
fitted model; posterior sampling reuses it directly. Every fitted model has
data: ``fit`` needs two points and deduplication keeps at least one.
Queries take a batch ``(n, d)`` only and return ``(n,)``; one point is a
batch of one row, and any other shape is a ``ValueError``.

Importing this module (and so ``mdots``) loads numpy only. SciPy's optimizer
and triangular solves are imported inside the functions that use them, so
SciPy loads at the first GP fit. A process that never fits or queries a GP
(a reference re-solve, a report, the parent of a study on a pool) never
loads it; a repeated function-level import costs about a microsecond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GpFitError",
    "KernelParams",
    "NormStats",
    "TrainedSurrogate",
    "kernel_matrix",
    "fit",
    "posterior_mean",
    "posterior_variance",
]

# Box for length scales and signal variance during hyperparameter search.
HYPER_BOUNDS = (1e-2, 1e2)
# Nugget escalation stops here; beyond it the fit is declared broken.
NUGGET_CEILING = 1e-3
# Training inputs closer than this (normalized space) are merged.
DUPLICATE_TOL = 1e-10

DEFAULT_NUGGET = 1e-7
DEFAULT_RESTARTS = 4


class GpFitError(RuntimeError):
    """Kernel matrix could not be factorized, even with an escalated nugget."""


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential hyperparameters, one length scale per input dimension."""

    length_scales: np.ndarray
    signal_variance: float
    nugget: float

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.length_scales, dtype=float)).copy()
        ls.setflags(write=False)
        object.__setattr__(self, "length_scales", ls)
        if not np.all(ls > 0.0):
            raise ValueError("length scales must be strictly positive")
        if not self.signal_variance > 0.0:
            raise ValueError("signal variance must be strictly positive")
        if not self.nugget > 0.0:
            raise ValueError("nugget must be strictly positive")

    @property
    def dim(self) -> int:
        return self.length_scales.size


@dataclass(frozen=True)
class NormStats:
    """Affine input/output transforms applied before fitting."""

    input_shift: np.ndarray
    input_scale: np.ndarray
    output_mean: float
    output_std: float

    def normalize_inputs(self, X: np.ndarray) -> np.ndarray:
        return (X - self.input_shift) / self.input_scale


@dataclass(frozen=True)
class TrainedSurrogate:
    """A fitted GP for one scalar output, on at least one (deduplicated) point.

    ``chol`` is the lower Cholesky factor of K + nugget*I in normalized
    space and ``alpha`` the cached solve of that system against the
    standardized targets.
    """

    params: KernelParams
    chol: np.ndarray
    alpha: np.ndarray
    norm: NormStats
    X_norm: np.ndarray
    y_std: np.ndarray

    @property
    def n(self) -> int:
        return self.X_norm.shape[0]

    @property
    def dim(self) -> int:
        return self.params.dim


def _as_batch(x, dim: int) -> np.ndarray:
    """``x`` as float rows ``(n, dim)``; any other shape is a ValueError."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected a batch of shape (n, {dim}), got shape {arr.shape}")
    return arr


def kernel_matrix(params: KernelParams, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix between row sets A (n,d) and B (m,d), no nugget."""
    diff = (A[:, None, :] - B[None, :, :]) / params.length_scales
    return params.signal_variance * np.exp(-0.5 * np.einsum("ijk,ijk->ij", diff, diff))


def _triangular_solve(L: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """Solve ``L x = b`` (``trans=1``) or ``L^T x = b`` (``trans=0``) for a lower factor ``L``.

    Calls LAPACK's triangular solve directly, as ``linalg.solve_triangular``
    does for a C-ordered factor (solving with ``L.T`` stored upper), minus
    its per-call validation: ``fit`` checks its data for NaN and inf once,
    before any solve.
    """
    from scipy.linalg.lapack import dtrtrs

    x, info = dtrtrs(L.T, b, lower=0, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK info {info})")
    return x


def _solve_chol(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b for a lower Cholesky factor ``L``."""
    return _triangular_solve(L, _triangular_solve(L, b, 1), 0)


def _norm_stats(X: np.ndarray, y: np.ndarray) -> NormStats:
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span = np.where(span > 0.0, span, 1.0)
    std = float(y.std())
    if std <= 0.0:
        std = 1.0
    return NormStats(lo, span, float(y.mean()), std)


def _dedup_keep_latest(X_norm: np.ndarray) -> np.ndarray:
    """Indices surviving the merge of near-identical rows; later rows win."""
    n = X_norm.shape[0]
    keep = []
    for i in range(n):
        d = np.abs(X_norm[i + 1 :] - X_norm[i]).max(axis=1) if i + 1 < n else np.empty(0)
        if not np.any(d < DUPLICATE_TOL):
            keep.append(i)
    return np.asarray(keep, dtype=int)


def _chol_with_escalation(params: KernelParams, X_norm: np.ndarray):
    """Factorize K + nugget*I, escalating the nugget by decades if needed."""
    K = kernel_matrix(params, X_norm, X_norm)
    nugget = params.nugget
    while True:
        try:
            Kn = K.copy()
            Kn[np.diag_indices_from(Kn)] += nugget
            L = np.linalg.cholesky(Kn)
            if nugget != params.nugget:
                params = KernelParams(params.length_scales, params.signal_variance, nugget)
            return L, params
        except np.linalg.LinAlgError:
            if nugget >= NUGGET_CEILING:
                raise GpFitError(
                    f"Cholesky failed with nugget {nugget:g} "
                    f"(condition estimate {np.linalg.cond(K):.3e})"
                ) from None
            nugget = min(nugget * 10.0, NUGGET_CEILING)


def _theta_to_params(theta: np.ndarray, nugget: float) -> KernelParams:
    return KernelParams(np.exp(theta[:-1]), float(np.exp(theta[-1])), nugget)


def _neg_lml_and_grad(theta, X_norm, y_std, nugget):
    """Negative log marginal likelihood and its gradient in log-parameter space.

    Analytic gradients keep the quasi-Newton search stable on the flat
    ridges this likelihood develops for smooth data.
    """
    params = _theta_to_params(theta, nugget)
    n = y_std.size
    diff = X_norm[:, None, :] - X_norm[None, :, :]
    scaled_sq = (diff / params.length_scales) ** 2
    K_nl = params.signal_variance * np.exp(-0.5 * scaled_sq.sum(axis=-1))
    K = K_nl + nugget * np.eye(n)
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return 1e25, np.zeros_like(theta)
    alpha = _solve_chol(L, y_std)
    lml = -0.5 * y_std @ alpha - np.log(np.diag(L)).sum() - 0.5 * n * np.log(2.0 * np.pi)
    # d lml / d theta_j = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta_j)
    W = np.outer(alpha, alpha) - _solve_chol(L, np.eye(n))
    grad_log_sv = 0.5 * np.sum(W * K_nl)
    grad_scales = 0.5 * np.einsum("ij,ij,ijd->d", W, K_nl, scaled_sq)
    grad = np.concatenate([grad_scales, [grad_log_sv]])
    return -float(lml), -grad


def fit(
    X,
    y,
    *,
    restarts: int = DEFAULT_RESTARTS,
    rng=None,
    warm_start: KernelParams | None = None,
) -> TrainedSurrogate:
    """Fit hyperparameters by maximizing the log marginal likelihood.

    The search is a bounded L-BFGS-B run in log space, started at unit
    length scales and unit signal variance plus ``restarts`` random
    restarts drawn from ``rng`` (and at ``warm_start`` when given). The
    nugget is held at ``DEFAULT_NUGGET`` unless Cholesky failures force
    escalation.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise ValueError("X and y disagree on the number of points")
    if X.shape[0] < 2:
        raise ValueError("need at least two training points")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("training inputs and targets must be finite")
    rng = np.random.default_rng(rng)

    norm = _norm_stats(X, y)
    X_norm = norm.normalize_inputs(X)
    keep = _dedup_keep_latest(X_norm)
    X_norm, y = X_norm[keep], y[keep]
    y_std = (y - norm.output_mean) / norm.output_std

    n_theta = X.shape[1] + 1
    lo, hi = np.log(HYPER_BOUNDS[0]), np.log(HYPER_BOUNDS[1])

    starts = []
    if warm_start is not None:
        starts.append(np.clip(np.log(np.append(warm_start.length_scales, warm_start.signal_variance)), lo, hi))
    starts.append(np.zeros(n_theta))
    starts.extend(rng.uniform(lo, hi, size=n_theta) for _ in range(restarts))

    from scipy import optimize

    best_theta, best_val = None, np.inf
    for theta0 in starts:
        res = optimize.minimize(
            _neg_lml_and_grad,
            theta0,
            args=(X_norm, y_std, DEFAULT_NUGGET),
            method="L-BFGS-B",
            jac=True,
            bounds=[(lo, hi)] * n_theta,
            options={"ftol": 1e-13, "gtol": 1e-9, "maxiter": 500},
        )
        if res.fun < best_val:
            best_theta, best_val = res.x, res.fun

    params = _theta_to_params(best_theta, DEFAULT_NUGGET)
    L, params = _chol_with_escalation(params, X_norm)
    alpha = _solve_chol(L, y_std)
    for arr in (L, alpha, X_norm, y_std):
        arr.setflags(write=False)
    return TrainedSurrogate(params=params, chol=L, alpha=alpha, norm=norm, X_norm=X_norm, y_std=y_std)


def posterior_mean(s: TrainedSurrogate, X) -> np.ndarray:
    """Posterior mean at the rows of ``X`` ``(n, d)`` in raw output units, ``(n,)``."""
    Kxs = kernel_matrix(s.params, s.norm.normalize_inputs(_as_batch(X, s.dim)), s.X_norm)
    return s.norm.output_mean + s.norm.output_std * (Kxs @ s.alpha)


def posterior_variance(s: TrainedSurrogate, X) -> np.ndarray:
    """Posterior variance at the rows of ``X`` ``(n, d)`` in raw output units, clamped at zero, ``(n,)``."""
    Kxs = kernel_matrix(s.params, s.norm.normalize_inputs(_as_batch(X, s.dim)), s.X_norm)
    w = _triangular_solve(s.chol, Kxs.T, 1)
    var = s.params.signal_variance - np.einsum("ij,ij->j", w, w)
    return np.maximum(var, 0.0) * s.norm.output_std**2
