"""Approximate posterior sample paths: random Fourier features plus an exact update.

A draw is a deterministic function, continuous down to the resolution of
its cosine (below), cheap enough to sit inside an iterative coupled solve:
a cosine expansion of the prior (frequencies from the kernel's spectral
density) corrected by a kernel-weighted residual term that pins the path
to the training data. Every surrogate a path is drawn from
has data (``gp.fit`` needs two points). ``eval_path`` takes a batch of
points ``(n, d)`` only, as the coupled solve passes them, and returns
``(n,)``; one point is a batch of one row.

The feature cosine (one per feature per evaluated row, once most of a run)
runs in single precision; the phase it takes and the sum over the weights
stay float64. Each cosine is within 6e-8 * (|phase| + 4) of its float64
value (float32 rounding of the phase, plus 2 ulp for the cosine kernel),
and a path is flat between float32 phase steps, so a finite difference of
a path needs a step well above that resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import KernelParams, TrainedSurrogate, _as_batch, _solve_chol, kernel_matrix

__all__ = ["FeatureMap", "PathSample", "sample_feature_map", "draw_path", "eval_path"]

DEFAULT_FEATURES = 1000
ROW_BLOCK = 256


@dataclass(frozen=True)
class FeatureMap:
    """Cosine basis for one prior draw: frequencies, phases, weights, amplitude."""

    thetas: np.ndarray  # (n_features, dim)
    taus: np.ndarray  # (n_features,)
    weights: np.ndarray  # (n_features,)
    amplitude: float

    @property
    def n_features(self) -> int:
        return self.taus.size


@dataclass(frozen=True)
class PathSample:
    """One posterior draw; evaluation is pure and reproducible from (seed, surrogate)."""

    features: FeatureMap
    update_coeffs: np.ndarray
    anchor: TrainedSurrogate


def sample_feature_map(params: KernelParams, n_features: int, rng) -> FeatureMap:
    """Draw RFF frequencies/phases/weights for the squared-exponential kernel.

    Frequencies are independent normals with per-dimension standard
    deviation 1/length_scale (the kernel's spectral density in normalized
    input space).
    """
    if n_features < 1:
        raise ValueError("need at least one basis function")
    rng = np.random.default_rng(rng)
    thetas = rng.standard_normal((n_features, params.dim)) / params.length_scales
    taus = rng.uniform(0.0, 2.0 * np.pi, size=n_features)
    weights = rng.standard_normal(n_features)
    amplitude = float(np.sqrt(params.signal_variance) * np.sqrt(2.0 / n_features))
    for arr in (thetas, taus, weights):
        arr.setflags(write=False)
    return FeatureMap(thetas=thetas, taus=taus, weights=weights, amplitude=amplitude)


def _prior_values(fm: FeatureMap, X_norm: np.ndarray) -> np.ndarray:
    # The phase ``X_norm @ thetas.T + taus`` is float64; its cosine runs in
    # single precision (the bits of ``np.cos(phase.astype(np.float32))``) and
    # is written back into the phase block as float64, exactly, so the sum
    # over the weights is float64 with no temporary the size of the block.
    # Finite differences of a path need steps far above 6e-8 * |phase|.
    # Rows go in blocks of ``ROW_BLOCK`` to keep a large batch's phase block small; a run's calls are one block.
    values = np.empty(X_norm.shape[0])
    for start in range(0, X_norm.shape[0], ROW_BLOCK):
        phase = X_norm[start : start + ROW_BLOCK] @ fm.thetas.T
        phase += fm.taus
        np.cos(phase, out=phase, dtype=np.float32)
        values[start : start + ROW_BLOCK] = phase @ fm.weights
    return fm.amplitude * values


def draw_path(surrogate: TrainedSurrogate, n_features: int, rng) -> PathSample:
    """Draw one approximate posterior path from a fitted surrogate.

    Consumes the stream in a fixed order (frequencies, phases, weights,
    then the noise variates of the exact update), so a seed fully
    determines the path.
    """
    rng = np.random.default_rng(rng)
    fm = sample_feature_map(surrogate.params, n_features, rng)
    eps = rng.standard_normal(surrogate.n) * np.sqrt(surrogate.params.nugget)
    resid = surrogate.y_std - _prior_values(fm, surrogate.X_norm) - eps
    v = _solve_chol(surrogate.chol, resid)
    v.setflags(write=False)
    return PathSample(features=fm, update_coeffs=v, anchor=surrogate)


def eval_path(path: PathSample, X) -> np.ndarray:
    """Evaluate the path at the rows of ``X`` ``(n, d)``; ``(n,)`` in raw output units."""
    s = path.anchor
    Xqn = s.norm.normalize_inputs(_as_batch(X, s.dim))
    vals = _prior_values(path.features, Xqn) + kernel_matrix(s.params, Xqn, s.X_norm) @ path.update_coeffs
    return s.norm.output_mean + s.norm.output_std * vals
