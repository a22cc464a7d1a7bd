import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from mdots.gp import (
    GpFitError,
    KernelParams,
    _neg_lml_and_grad,
    _solve_chol,
    fit,
    kernel_matrix,
    posterior_mean,
    posterior_variance,
)


def dense_kernel(x, xp, length_scales, signal_variance):
    """Test-local squared-exponential, independent of the library implementation."""
    r = (np.asarray(x) - np.asarray(xp)) / np.asarray(length_scales)
    return signal_variance * np.exp(-0.5 * np.sum(r * r))


def dense_posterior(surrogate, x_star):
    """Direct dense-linear-algebra posterior in normalized space, de-scaled."""
    params, norm = surrogate.params, surrogate.norm
    Xn = surrogate.X_norm
    n = Xn.shape[0]
    K = np.array([[dense_kernel(Xn[i], Xn[j], params.length_scales, params.signal_variance) for j in range(n)] for i in range(n)])
    K += params.nugget * np.eye(n)
    xq = norm.normalize_inputs(np.atleast_2d(x_star))[0]
    k_star = np.array([dense_kernel(xq, Xn[j], params.length_scales, params.signal_variance) for j in range(n)])
    sol = np.linalg.solve(K, surrogate.y_std)
    mean = norm.output_mean + norm.output_std * (k_star @ sol)
    var = params.signal_variance - k_star @ np.linalg.solve(K, k_star)
    return mean, var * norm.output_std**2


def k11(params, x, xp):
    """k(x, x') for two single points, as the 1x1 kernel matrix."""
    K = kernel_matrix(params, np.array([x], dtype=float), np.array([xp], dtype=float))
    assert K.shape == (1, 1)
    return K[0, 0]


class TestKernel:
    def test_diagonal_is_signal_variance(self):
        params = KernelParams(length_scales=[1.0], signal_variance=1.0, nugget=1e-7)
        assert k11(params, [0.3], [0.3]) == 1.0

    def test_unit_exponent(self):
        params = KernelParams(length_scales=[1.0, 1.0], signal_variance=1.0, nugget=1e-7)
        value = k11(params, [0.0, 0.0], [np.sqrt(2.0), 0.0])
        assert value == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_ard_closed_form(self):
        # hand-calculator oracle: 2.5 * exp(-0.5 * ((2/2)^2 + (1/1)^2))
        params = KernelParams(length_scales=[2.0, 1.0], signal_variance=2.5, nugget=1e-7)
        value = k11(params, [0.0, 0.0], [2.0, 1.0])
        assert value == pytest.approx(0.9196986029286058, rel=1e-12)

    def test_symmetry(self):
        params = KernelParams(length_scales=[0.7, 1.3], signal_variance=1.8, nugget=1e-7)
        a, b = np.array([0.2, -0.4]), np.array([1.0, 2.0])
        assert k11(params, a, b) == k11(params, b, a)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KernelParams(length_scales=[0.0], signal_variance=1.0, nugget=1e-7)
        with pytest.raises(ValueError):
            KernelParams(length_scales=[1.0], signal_variance=-1.0, nugget=1e-7)
        with pytest.raises(ValueError):
            KernelParams(length_scales=[1.0], signal_variance=1.0, nugget=0.0)


def lml_at(params: KernelParams, X_norm, y_std) -> float:
    """The likelihood ``fit`` maximizes, at ``params``: minus ``_neg_lml_and_grad`` at their logarithms."""
    theta = np.log(np.append(params.length_scales, params.signal_variance))
    neg, _ = _neg_lml_and_grad(theta, np.asarray(X_norm, float), np.asarray(y_std, float), params.nugget)
    return -neg


class TestLogMarginalLikelihood:
    def test_single_point_closed_form(self):
        params = KernelParams(length_scales=[1.0], signal_variance=1.0, nugget=1e-7)
        value = lml_at(params, np.array([[0.0]]), np.array([0.0]))
        expected = -0.5 * np.log(2.0 * np.pi) - 0.5 * np.log(1.0 + 1e-7)
        assert value == pytest.approx(expected, abs=1e-14)

    def test_two_far_points_closed_form(self):
        # K is the identity for points many length scales apart.
        params = KernelParams(length_scales=[1.0], signal_variance=1.0, nugget=1e-7)
        value = lml_at(params, np.array([[0.0], [1000.0]]), np.array([1.0, -1.0]))
        assert value == pytest.approx(-1.0 - np.log(2.0 * np.pi), abs=1e-6)

    def test_huge_signal_variance_penalized(self):
        # Points far apart so the fit term cannot absorb the scale: the
        # log-determinant penalty then drives the likelihood down.
        rng = np.random.default_rng(0)
        Xn = np.arange(8.0)[:, None] * 10.0
        y = rng.standard_normal(8)
        small = KernelParams(length_scales=[1.0], signal_variance=1.0, nugget=1e-7)
        huge = KernelParams(length_scales=[1.0], signal_variance=1e6, nugget=1e-7)
        assert lml_at(huge, Xn, y) < lml_at(small, Xn, y)


class TestFit:
    def test_degenerate_targets_give_zero_mean(self):
        s = fit([[0.0], [1.0]], [0.0, 0.0], rng=0)
        assert s.norm.output_std == 1.0
        assert posterior_mean(s, [[0.25], [0.9], [3.0]]) == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)

    def test_near_interpolation_sine(self):
        x = np.linspace(0.0, 2.0 * np.pi, 5)[:, None]
        y = np.sin(x[:, 0])
        s = fit(x, y, rng=1)
        assert posterior_mean(s, x) == pytest.approx(y, abs=1e-3)

    def test_quadratic_prediction_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(-2.0, 2.0, size=20))[:, None]
        y = x[:, 0] ** 2
        s = fit(x, y, rng=3)
        pred = posterior_mean(s, [[0.5]])[0]
        assert pred == pytest.approx(0.25, abs=1e-2)
        # Smooth targets drive the kernel matrix near-singular, so dense-LU
        # and Cholesky solves only agree up to the conditioning here; the
        # strict 1e-10 equivalence lives in the random-instance test below.
        oracle_mean, _ = dense_posterior(s, [0.5])
        assert pred == pytest.approx(oracle_mean, rel=1e-8)
        assert oracle_mean == pytest.approx(0.25, abs=1e-2)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit([[0.0]], [1.0], rng=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_rejects_non_finite_data(self, bad, where):
        X = np.array([[0.0, 1.0], [0.5, 0.2], [1.0, 0.7]])
        y = np.array([0.3, -0.1, 0.8])
        if where == "X":
            X[1, 0] = bad
        else:
            y[2] = bad
        with pytest.raises(ValueError):
            fit(X, y, rng=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(12, 2))
        y = np.sin(3.0 * x[:, 0]) + x[:, 1]
        a = fit(x, y, rng=11)
        b = fit(x, y, rng=11)
        assert np.array_equal(a.params.length_scales, b.params.length_scales)
        assert a.params.signal_variance == b.params.signal_variance

    def test_duplicates_merged_latest_target_kept(self):
        s = fit([[0.0], [1.0], [1.0]], [0.0, 1.0, 2.0], rng=0)
        assert s.n == 2
        # Inputs span [0, 1] already, so normalized x = 1.0 is raw x = 1.0; map its target back to raw units.
        kept = s.y_std[list(s.X_norm[:, 0]).index(1.0)]
        assert s.norm.output_mean + s.norm.output_std * kept == pytest.approx(2.0, rel=1e-15)

    def test_affine_output_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(10, 1))
        y = rng.standard_normal(10)
        a, b = 3.7, -2.2
        s0 = fit(x, y, rng=7)
        s1 = fit(x, y * a + b, rng=7)
        xq = rng.uniform(size=(6, 1))
        m0 = posterior_mean(s0, xq)
        m1 = posterior_mean(s1, xq)
        np.testing.assert_allclose(m1, m0 * a + b, rtol=1e-8, atol=1e-10)

    def test_affine_output_invariance_smooth_targets(self):
        # Smooth targets leave a nearly flat likelihood ridge, so the two
        # optimizations may stop at slightly different points; the map
        # still holds to optimizer-termination accuracy.
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(10, 1))
        y = np.cos(4.0 * x[:, 0])
        s0 = fit(x, y, rng=7)
        s1 = fit(x, y * 3.7 - 2.2, rng=7)
        xq = rng.uniform(size=(6, 1))
        np.testing.assert_allclose(posterior_mean(s1, xq), posterior_mean(s0, xq) * 3.7 - 2.2, rtol=1e-4)

    def test_nugget_escalation_recorded(self):
        # Three points coincident at this length scale: rank-one kernel
        # matrix, so a 1e-18 nugget cannot factorize and must escalate.
        import mdots.gp as gp_mod

        params = KernelParams(length_scales=[100.0], signal_variance=1.0, nugget=1e-18)
        Xn = np.array([[0.0], [1e-8], [2e-8]])
        L, escalated = gp_mod._chol_with_escalation(params, Xn)
        assert escalated.nugget > 1e-18
        assert np.all(np.isfinite(L))

    def test_gradient_matches_finite_differences(self):
        import mdots.gp as gp_mod

        rng = np.random.default_rng(21)
        Xn = rng.uniform(size=(9, 2))
        y = rng.standard_normal(9)
        theta = np.array([0.3, -0.2, 0.5])
        _, grad = gp_mod._neg_lml_and_grad(theta, Xn, y, 1e-7)
        h = 1e-6
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            up, _ = gp_mod._neg_lml_and_grad(theta + step, Xn, y, 1e-7)
            dn, _ = gp_mod._neg_lml_and_grad(theta - step, Xn, y, 1e-7)
            assert grad[j] == pytest.approx((up - dn) / (2.0 * h), rel=1e-5, abs=1e-8)

    def test_escalation_ceiling_raises_on_indefinite_matrix(self, monkeypatch):
        import mdots.gp as gp_mod

        params = KernelParams(length_scales=[1.0], signal_variance=1.0, nugget=1e-7)
        monkeypatch.setattr(gp_mod, "kernel_matrix", lambda *a, **k: np.array([[0.0, 5.0], [5.0, 0.0]]))
        with pytest.raises(GpFitError):
            gp_mod._chol_with_escalation(params, np.zeros((2, 1)))


class TestSolveChol:
    @pytest.mark.parametrize("n", [1, 2, 7, 15])
    def test_matches_solve_triangular_pair(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        L = np.linalg.cholesky(A @ A.T + 1e-3 * np.eye(n))
        for b in (rng.standard_normal(n), np.eye(n)):
            want = linalg.solve_triangular(L.T, linalg.solve_triangular(L, b, lower=True), lower=False)
            got = _solve_chol(L, b)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_singular_factor_raises(self):
        L = np.array([[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            _solve_chol(L, np.ones(2))


def reference_posterior_variance(s, Xq):
    """The variance through ``scipy.linalg.solve_triangular``, as it was computed before the one LAPACK route."""
    Kxs = kernel_matrix(s.params, s.norm.normalize_inputs(Xq), s.X_norm)
    w = linalg.solve_triangular(s.chol, Kxs.T, lower=True)
    var = s.params.signal_variance - np.einsum("ij,ij->j", w, w)
    return np.maximum(var, 0.0) * s.norm.output_std**2


class TestPosteriorVarianceReference:
    @pytest.mark.parametrize("rows", [1, 40])
    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("n", [2, 7, 15])
    def test_bit_equal_to_solve_triangular(self, n, d, rows):
        rng = np.random.default_rng(100 * n + 10 * d + rows)
        X = rng.uniform(-1.0, 2.0, size=(n, d))
        s = fit(X, np.sin(2.0 * X).sum(axis=1), restarts=0, rng=rng)
        assert s.n == n and s.chol.flags.c_contiguous
        Xq = rng.uniform(-1.5, 2.5, size=(rows, d))
        if rows > n:
            Xq[:n] = X  # the training inputs too, where the variance is near zero or clamped
        assert np.array_equal(posterior_variance(s, Xq), reference_posterior_variance(s, Xq))


class TestPosterior:
    def test_mean_interpolates_training_points(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.0, 1.0, size=(8, 2))
        y = np.sin(x[:, 0]) * np.cos(x[:, 1])
        s = fit(x, y, rng=10)
        tol = 10.0 * np.sqrt(s.params.nugget) * s.norm.output_std
        assert np.all(np.abs(posterior_mean(s, x) - y) <= tol)

    def test_far_field_reverts_to_prior(self):
        x = np.linspace(0.0, 1.0, 6)[:, None]
        y = np.sin(6.0 * x[:, 0])
        s = fit(x, y, rng=12)
        span = s.norm.input_scale[0]
        far = np.array([[1.0 + 25.0 * s.params.length_scales[0] * span]])
        assert abs(posterior_mean(s, far)[0] - s.norm.output_mean) <= 1e-3 * s.norm.output_std
        prior_var = s.params.signal_variance * s.norm.output_std**2
        assert posterior_variance(s, far)[0] == pytest.approx(prior_var, rel=1e-3)

    def test_variance_small_at_training_points(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(size=(7, 1))
        y = rng.standard_normal(7)
        s = fit(x, y, rng=14)
        assert np.all(posterior_variance(s, x) <= 2.0 * s.params.nugget * s.norm.output_std**2)

    def test_matches_dense_oracle_on_random_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n, d = int(rng.integers(3, 20)), int(rng.integers(1, 4))
            x = rng.uniform(-2.0, 3.0, size=(n, d))
            y = rng.standard_normal(n)
            s = fit(x, y, restarts=1, rng=rng)
            for _ in range(5):
                xq = rng.uniform(-2.0, 3.0, size=d)
                om, ov = dense_posterior(s, xq)
                assert posterior_mean(s, xq[None, :])[0] == pytest.approx(om, rel=1e-10, abs=1e-12)
                assert posterior_variance(s, xq[None, :])[0] == pytest.approx(max(ov, 0.0), rel=1e-10, abs=1e-12)

    def test_variance_positive_everywhere(self):
        rng = np.random.default_rng(16)
        for _ in range(4):
            n, d = int(rng.integers(5, 50)), int(rng.integers(1, 6))
            x = rng.uniform(size=(n, d))
            y = rng.standard_normal(n)
            s = fit(x, y, restarts=1, rng=rng)
            xq = rng.uniform(-0.5, 1.5, size=(2500, d))
            assert np.all(posterior_variance(s, xq) >= 0.0)

    def test_cholesky_reconstructs_kernel_matrix(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(size=(12, 2))
        y = rng.standard_normal(12)
        s = fit(x, y, rng=18)
        n = s.n
        K = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                K[i, j] = dense_kernel(s.X_norm[i], s.X_norm[j], s.params.length_scales, s.params.signal_variance)
        K += s.params.nugget * np.eye(n)
        rel = np.linalg.norm(s.chol @ s.chol.T - K) / np.linalg.norm(K)
        assert rel <= 1e-8

    def test_dimension_mismatch(self):
        s = fit([[0.0], [1.0]], [0.0, 1.0], rng=0)
        for query in (posterior_mean, posterior_variance):
            with pytest.raises(ValueError, match=r"shape \(n, 1\), got shape \(2,\)"):
                query(s, [0.0, 1.0])
            with pytest.raises(ValueError, match=r"shape \(n, 1\), got shape \(2, 2\)"):
                query(s, [[0.0, 1.0], [1.0, 0.0]])

    def test_queries_take_batches_only(self):
        # One point is a batch of one row; a bare point, a scalar or a stack of batches is refused.
        s = fit([[0.0], [1.0]], [0.0, 1.0], rng=0)
        for query in (posterior_mean, posterior_variance):
            assert query(s, [[0.5]]).shape == (1,)
            for bad in ([0.5], 0.5, [[[0.5]]]):
                with pytest.raises(ValueError, match="expected a batch of shape"):
                    query(s, bad)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        a=st.floats(min_value=0.1, max_value=10.0),
        b=st.floats(min_value=-5.0, max_value=5.0),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_affine_round_trip_property(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(6, 1))
        y = rng.standard_normal(6)
        s0 = fit(x, y, restarts=0, rng=0)
        s1 = fit(x, y * a + b, restarts=0, rng=0)
        xq = rng.uniform(size=(3, 1))
        np.testing.assert_allclose(posterior_mean(s1, xq), posterior_mean(s0, xq) * a + b, rtol=1e-8, atol=1e-8)


class TestNormStats:
    def test_training_inputs_map_to_the_unit_box(self):
        X = np.array([[2.0, -1.0], [4.0, 3.0], [3.0, 1.0]])
        s = fit(X, [0.0, 1.0, 0.5], rng=0)
        np.testing.assert_array_equal(s.X_norm, s.norm.normalize_inputs(X))
        np.testing.assert_array_equal(s.X_norm.min(axis=0), [0.0, 0.0])
        np.testing.assert_array_equal(s.X_norm.max(axis=0), [1.0, 1.0])
