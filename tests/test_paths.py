import time
import tracemalloc

import numpy as np
import pytest

from mdots.gp import KernelParams, fit, kernel_matrix, posterior_mean, posterior_variance
from mdots.paths import ROW_BLOCK, _prior_values, draw_path, eval_path, sample_feature_map


def make_surrogate(n=8, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))[:, None]
    y = np.sin(x[:, 0]) + 0.3 * x[:, 0]
    return fit(x, y, rng=seed + 1), x, y


def float64_parts(path, Xq):
    """The phases, prior and update terms of a path at the rows of ``Xq``, every step in float64 (the reference)."""
    s, fm = path.anchor, path.features
    Xn = s.norm.normalize_inputs(np.asarray(Xq, dtype=float))
    phase = Xn @ fm.thetas.T + fm.taus
    prior = fm.amplitude * (np.cos(phase) @ fm.weights)
    update = kernel_matrix(s.params, Xn, s.X_norm) @ path.update_coeffs
    return phase, prior, update


def float64_eval_path(path, Xq):
    """The path at the rows of ``Xq`` with its feature cosine in float64, in raw output units."""
    _, prior, update = float64_parts(path, Xq)
    norm = path.anchor.norm
    return norm.output_mean + norm.output_std * (prior + update)


class TestFeatureMap:
    def test_frequency_spread_matches_spectral_density(self):
        params = KernelParams(length_scales=[1.0], signal_variance=1.0, nugget=1e-7)
        fm = sample_feature_map(params, 1000, np.random.default_rng(0))
        # 3-sigma band for the sample std of 1000 unit normals
        assert 0.93 <= fm.thetas.std() <= 1.07

    def test_phases_in_range_and_shapes(self):
        params = KernelParams(length_scales=[2.0, 0.5], signal_variance=1.5, nugget=1e-7)
        fm = sample_feature_map(params, 64, np.random.default_rng(1))
        assert fm.thetas.shape == (64, 2)
        assert np.all((fm.taus >= 0.0) & (fm.taus < 2.0 * np.pi))
        assert fm.amplitude == pytest.approx(np.sqrt(1.5) * np.sqrt(2.0 / 64.0))

    def test_ard_scaling_of_frequencies(self):
        params = KernelParams(length_scales=[4.0, 0.25], signal_variance=1.0, nugget=1e-7)
        fm = sample_feature_map(params, 4000, np.random.default_rng(2))
        assert fm.thetas[:, 0].std() == pytest.approx(0.25, rel=0.15)
        assert fm.thetas[:, 1].std() == pytest.approx(4.0, rel=0.15)

    def test_prior_covariance_approximates_kernel(self):
        # Monte Carlo estimate of the feature covariance against the exact kernel.
        params = KernelParams(length_scales=[1.0], signal_variance=1.0, nugget=1e-7)
        fm = sample_feature_map(params, 5000, np.random.default_rng(3))
        xs = np.linspace(-3.0, 3.0, 13)
        phi0 = np.cos(0.0 * fm.thetas[:, 0] + fm.taus)
        for x in xs:
            phix = np.cos(x * fm.thetas[:, 0] + fm.taus)
            estimate = 2.0 * params.signal_variance / fm.n_features * np.sum(phi0 * phix)
            exact = params.signal_variance * np.exp(-0.5 * x * x)
            assert abs(estimate - exact) <= 0.05

    def test_rejects_empty_basis(self):
        params = KernelParams(length_scales=[1.0], signal_variance=1.0, nugget=1e-7)
        with pytest.raises(ValueError):
            sample_feature_map(params, 0, np.random.default_rng(0))


class TestEvalPath:
    def test_matches_the_three_temporary_expression(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1.0, 2.0, size=(9, 3))
        y = np.sin(X).sum(axis=1)
        s = fit(X, y, rng=6)
        path = draw_path(s, 1000, rng=7)
        fm = path.features
        for Xq in (rng.uniform(-1.0, 2.0, size=(45, 3)), rng.uniform(-1.0, 2.0, size=(1, 3))):
            Xn = s.norm.normalize_inputs(Xq)
            # The float64 phase, rounded to float32 for its cosine; the weighted sum promotes to float64.
            vals = fm.amplitude * (np.cos((Xn @ fm.thetas.T + fm.taus).astype(np.float32)) @ fm.weights)
            vals = vals + kernel_matrix(s.params, Xn, s.X_norm) @ path.update_coeffs
            want = s.norm.output_mean + s.norm.output_std * vals
            assert np.array_equal(eval_path(path, Xq), want)
        with pytest.raises(ValueError, match="expected a batch of shape"):
            eval_path(path, Xq[0])  # a bare point is not a batch

    def test_cosine_takes_no_second_block(self):
        # The float32 cosine goes back into the float64 phase block, so a call's peak is about that one block:
        # a float32 cosine block and its float64 promotion on top of it took the peak to about 2.5 blocks.
        params = KernelParams(length_scales=[1.0, 1.0], signal_variance=1.0, nugget=1e-7)
        fm = sample_feature_map(params, 1000, np.random.default_rng(8))
        X = np.random.default_rng(9).uniform(size=(1000, 2))
        block = X.shape[0] * fm.n_features * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            _prior_values(fm, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block

    def test_batch_past_one_row_block_matches_the_whole_block_expression(self):
        # Rows go in blocks of ROW_BLOCK; every row of a batch with a partial last block gets its expansion.
        params = KernelParams(length_scales=[1.0, 1.0], signal_variance=1.0, nugget=1e-7)
        fm = sample_feature_map(params, 300, np.random.default_rng(10))
        X = np.random.default_rng(11).uniform(size=(2 * ROW_BLOCK + 7, 2))
        want = fm.amplitude * (np.cos((X @ fm.thetas.T + fm.taus).astype(np.float32)) @ fm.weights)
        atol = 1e-12 * fm.amplitude * np.abs(fm.weights).sum()
        np.testing.assert_allclose(_prior_values(fm, X), want, rtol=0.0, atol=atol)

    def test_purity(self):
        s, _, _ = make_surrogate()
        path = draw_path(s, 256, np.random.default_rng(5))
        x = np.array([[1.234]])
        assert np.array_equal(eval_path(path, x), eval_path(path, x))

    def test_determinism_from_seed(self):
        s, _, _ = make_surrogate()
        a = draw_path(s, 256, np.random.default_rng(42))
        b = draw_path(s, 256, np.random.default_rng(42))
        xq = np.linspace(0.0, 6.0, 11)[:, None]
        np.testing.assert_array_equal(eval_path(a, xq), eval_path(b, xq))

    def test_prior_only_path_is_pure_feature_expansion(self):
        # The prior part of a path: the cosine expansion of one feature-map draw, nothing else. The cosine
        # takes the float64 phase rounded to float32; the sum over the weights is float64.
        params = KernelParams(length_scales=[1.0], signal_variance=2.0, nugget=1e-7)
        fm = sample_feature_map(params, 128, np.random.default_rng(6))
        x = 0.7
        cosine = np.cos((fm.thetas[:, 0] * x + fm.taus).astype(np.float32))
        expected = fm.amplitude * np.sum(fm.weights * cosine)
        assert _prior_values(fm, np.array([[x]]))[0] == pytest.approx(expected, rel=1e-12)

    def test_batch_matches_pointwise(self):
        s, _, _ = make_surrogate()
        path = draw_path(s, 200, np.random.default_rng(7))
        xq = np.linspace(-1.0, 7.0, 9)[:, None]
        # The data-update term cancels heavily (coefficients ~1e5 for a
        # near-singular kernel matrix), so GEMM vs GEMV reduction order
        # shows up around 1e-12; anything structural would be far larger.
        batch = eval_path(path, xq)
        single = np.array([eval_path(path, row[None, :])[0] for row in xq])
        np.testing.assert_allclose(batch, single, rtol=1e-10, atol=1e-10)

    def test_single_precision_cosine_stays_within_its_rounding_bound(self):
        # A path differs from its float64 expansion only through the feature cosine. With u = 2**-24 the
        # float32 unit roundoff, rounding a phase p to float32 moves it by at most u*|p|, and cos is
        # 1-Lipschitz, so the cosine of the rounded phase is off by at most u*|p|. The float32 cosine kernel
        # adds at most 2 ulp(1) = 4u (numpy states its SIMD cosf within 1.49 ulp, and libm's cosf is within 1).
        # So the prior term moves by at most amplitude * sum_i |w_i| (u |p_i| + 4u). Each side's float64 sum
        # of n weighted cosines adds at most gamma_n * amplitude * sum_i |w_i|, gamma_n = n e / (1 - n e) with
        # e = 2**-53. Both sides then share the update term bit for bit, and four float64 roundings (times
        # amplitude, plus update, times output_std, plus output_mean) each move a side by at most e times
        # the magnitudes involved. Scaled to raw units by output_std, that is the bound below.
        rng = np.random.default_rng(5)
        X = rng.uniform(-1.0, 2.0, size=(9, 3))
        s = fit(X, np.sin(X).sum(axis=1), rng=6)
        path = draw_path(s, 1000, rng=7)
        fm, norm = path.features, s.norm
        u, e = np.finfo(np.float32).eps / 2.0, np.finfo(np.float64).eps / 2.0
        gamma_n = fm.n_features * e / (1.0 - fm.n_features * e)
        abs_w = np.abs(fm.weights)
        rows = rng.uniform(-1.0, 2.0, size=(45, 3))
        for Xq in (rows, *(row[None, :] for row in rows[:5])):
            phase, prior, update = float64_parts(path, Xq)
            cosine_error = fm.amplitude * ((u * np.abs(phase) + 4.0 * u) @ abs_w)
            sum_error = 2.0 * gamma_n * fm.amplitude * abs_w.sum()
            roundings = 4.0 * e * (abs(norm.output_mean) + norm.output_std * (np.abs(prior) + np.abs(update)))
            bound = norm.output_std * (cosine_error + sum_error) + 2.0 * roundings
            got = eval_path(path, Xq)
            assert np.all(np.abs(got - float64_eval_path(path, Xq)) <= bound)

    def test_derivative_against_central_difference(self):
        # The analytic slope against a central difference of the path's float64 expansion. The path itself
        # takes its cosine in single precision, so it is flat between float32 phase steps (about
        # 6e-8 * |phase|), and a difference at h = 1e-6 would measure that rounding, not the slope.
        s, _, _ = make_surrogate()
        path = draw_path(s, 300, np.random.default_rng(8))
        fm = path.features
        scale = s.norm.input_scale[0]
        ell = s.params.length_scales

        def analytic_slope(x):
            xn = s.norm.normalize_inputs(np.array([[x]]))[0, 0]
            d_prior = -fm.amplitude * np.sum(fm.weights * fm.thetas[:, 0] * np.sin(fm.thetas[:, 0] * xn + fm.taus))
            d_update = 0.0
            for v, xj in zip(path.update_coeffs, s.X_norm[:, 0]):
                r = (xn - xj) / ell[0]
                k = s.params.signal_variance * np.exp(-0.5 * r * r)
                d_update += v * k * (-(xn - xj) / ell[0] ** 2)
            return (d_prior + d_update) * s.norm.output_std / scale

        rng = np.random.default_rng(9)
        h = 1e-6
        for x in rng.uniform(0.5, 5.5, size=5):
            fd = (float64_eval_path(path, [[x + h]])[0] - float64_eval_path(path, [[x - h]])[0]) / (2.0 * h)
            assert fd == pytest.approx(analytic_slope(x), rel=1e-5)

    def test_dimension_mismatch(self):
        s, _, _ = make_surrogate()
        path = draw_path(s, 64, np.random.default_rng(10))
        with pytest.raises(ValueError):
            eval_path(path, [0.0, 1.0])
        with pytest.raises(ValueError):
            eval_path(path, [[0.0, 1.0]])


class TestPosteriorConsistency:
    def test_paths_pin_training_targets(self):
        s, x, y = make_surrogate()
        rng = np.random.default_rng(11)
        tol = 3.0 * np.sqrt(s.params.nugget) * s.norm.output_std + 0.05 * s.norm.output_std
        for _ in range(50):
            path = draw_path(s, 1000, rng)
            vals = eval_path(path, x)
            assert np.all(np.abs(vals - y) <= tol)

    def test_marginal_mean_and_std_match_posterior(self):
        s, x, _ = make_surrogate()
        rng = np.random.default_rng(12)
        n_paths = 2000
        xq = np.linspace(0.2, 6.0, 10)[:, None]
        samples = np.empty((n_paths, len(xq)))
        for i in range(n_paths):
            samples[i] = eval_path(draw_path(s, 1000, rng), xq)

        mean_exact = posterior_mean(s, xq)
        std_exact = np.sqrt(posterior_variance(s, xq))
        bias = 0.05 * s.norm.output_std

        emp_mean = samples.mean(axis=0)
        emp_std = samples.std(axis=0)
        se = emp_std / np.sqrt(n_paths)
        assert np.all(np.abs(emp_mean - mean_exact) <= 3.0 * se + bias)
        assert np.all(np.abs(emp_std - std_exact) <= 0.10 * np.maximum(std_exact, 1e-12) + bias)


class TestLinearCost:
    def test_eval_cost_scales_linearly_in_basis_size(self):
        # Wall-clock ratio for 4x the basis functions; the batch is large
        # enough that both sizes hit the same allocation path.
        s, _, _ = make_surrogate(n=10, seed=3)
        xq = np.random.default_rng(13).uniform(0.0, 6.0, size=(4000, 1))
        small = draw_path(s, 1000, np.random.default_rng(14))
        large = draw_path(s, 4000, np.random.default_rng(15))

        def best_time(path):
            eval_path(path, xq)  # warm-up
            times = []
            for _ in range(10):
                t0 = time.perf_counter()
                eval_path(path, xq)
                times.append(time.perf_counter() - t0)
            return min(times)

        ratio = min(best_time(large) / best_time(small) for _ in range(3))
        assert 2.5 <= ratio <= 6.0
