import dataclasses
import inspect
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from mdots import mda
from mdots.mda import (
    OMEGA_BOUNDS,
    OMEGA_INIT,
    STALL_RATIO,
    STALL_START,
    STALL_WINDOW,
    CouplingResult,
    DisciplineFailure,
    MdaConfig,
    MdaStatus,
    aitken_update,
    gauss_seidel_solve,
    solve_batch,
)
from mdots.problems import Discipline, sellar_problem, toy_problem
from mdots.study import resolve_reference

TIGHT = MdaConfig(tolerance=1e-10, max_iterations=200)


def toy_fixed_point(z):
    """Independent 1-D root-find oracle for the toy coupling equations."""
    y1 = brentq(lambda v: z * z - np.cos((z + v) / 2.0) - v, -5.0, 30.0, xtol=1e-14)
    return y1, z + y1


class TestGaussSeidel:
    def test_toy_reference_point(self):
        problem = toy_problem()
        state = gauss_seidel_solve(problem.disciplines, [-2.9989], problem.y_midpoint(), TIGHT)
        assert state.status[0] == MdaStatus.CONVERGED
        y = state.y[0]
        # frozen from the brentq oracle
        assert y[0] == pytest.approx(9.939811368898633, abs=1e-8)
        assert y[1] == pytest.approx(6.940911368898633, abs=1e-8)
        f = float(problem.objective(np.array([[-2.9989]]), state.y)[0])
        assert f == pytest.approx(-1.1495, abs=5e-4)
        # cross-check against the independent oracle at runtime
        y1, y2 = toy_fixed_point(-2.9989)
        assert y[0] == pytest.approx(y1, abs=1e-8)
        assert y[1] == pytest.approx(y2, abs=1e-8)

    def test_sellar_reference_point(self):
        problem = sellar_problem()
        state = gauss_seidel_solve(problem.disciplines, [0.0, 2.6345, 0.0], problem.y_midpoint(), TIGHT)
        assert state.status[0] == MdaStatus.CONVERGED
        # closed form: s^2 + 0.2 s - 6.41369025 = 0, y1 = s^2, y2 = s + 2.6345
        assert state.y[0, 0] == pytest.approx(5.92679025, abs=1e-4)
        assert state.y[0, 1] == pytest.approx(5.069, abs=1e-4)

    def test_fixed_point_is_stationary(self):
        problem = toy_problem()
        y1, y2 = toy_fixed_point(1.5)
        state = gauss_seidel_solve(problem.disciplines, [1.5], np.array([y1, y2]), TIGHT)
        assert state.status[0] == MdaStatus.CONVERGED
        assert state.iterations[0] <= 2
        np.testing.assert_allclose(state.y[0], [y1, y2], rtol=1e-9)

    def test_converged_state_satisfies_discipline_equations(self):
        problem = toy_problem()
        rng = np.random.default_rng(0)
        for z in rng.uniform(-5.0, 5.0, size=8):
            state = gauss_seidel_solve(problem.disciplines, [z], problem.y_midpoint(), TIGHT)
            assert state.status[0] == MdaStatus.CONVERGED
            y = state.y[0]
            for disc in problem.disciplines:
                out = disc.fn(np.array([[z]]), y[None, disc.consumes])
                change = abs(float(out[0]) - y[disc.produces[0]])
                assert change <= 5.0 * TIGHT.tolerance * max(abs(y[disc.produces[0]]), 1e-12)

    def test_max_iterations_reported_not_raised(self):
        diverging = Discipline("d", produces=[0], consumes=[0], fn=lambda Z, Y: -1.5 * Y[:, 0] + 1.0)
        cfg = MdaConfig(tolerance=1e-10, max_iterations=30, aitken=False)
        state = gauss_seidel_solve([diverging], [0.0], np.array([0.3]), cfg)
        assert state.status[0] == MdaStatus.MAX_ITERATIONS
        assert state.iterations[0] == 30

    def test_evaluator_failure_from_nan_output(self):
        problem = sellar_problem()
        # at z = 0 a positive y2 drives y1 = -0.2*y2 negative, so the
        # square root in the second discipline fails on the first sweep
        state = gauss_seidel_solve(problem.disciplines, [0.0, 0.0, 0.0], np.array([25.5, 10.0]), TIGHT)
        assert state.status[0] == MdaStatus.EVALUATOR_FAILURE
        assert state.failure is not None

    def test_evaluator_failure_from_raised_exception(self):
        def boom(Z, Y):
            raise DisciplineFailure("solver crashed", kind="crash")

        disc = Discipline("boom", produces=[0], consumes=[0], fn=boom)
        state = gauss_seidel_solve([disc], [0.0], np.array([0.0]), TIGHT)
        assert state.status[0] == MdaStatus.EVALUATOR_FAILURE
        assert "crash" in state.failure

    def test_failure_keeps_last_valid_iterate(self):
        calls = {"n": 0}

        def flaky(Z, Y):
            calls["n"] += 1
            if calls["n"] >= 3:
                return np.full((Z.shape[0], 1), np.nan)
            return 0.5 * Y[:, 0] + 1.0

        disc = Discipline("flaky", produces=[0], consumes=[0], fn=flaky)
        state = gauss_seidel_solve([disc], [0.0], np.array([0.0]), MdaConfig(tolerance=1e-12, max_iterations=50))
        assert state.status[0] == MdaStatus.EVALUATOR_FAILURE
        assert np.isfinite(state.y[0, 0])


class TestLinearContraction:
    def make_disciplines(self, A, b):
        n = A.shape[0]
        return [
            Discipline(
                f"row{i}",
                produces=[i],
                consumes=[j for j in range(n) if j != i],
                fn=lambda Z, Y, i=i: Y @ np.delete(A[i], i) + A[i, i] * 0.0 + b[i],
            )
            for i in range(n)
        ]

    def test_random_contractive_systems_reach_direct_solution(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            A = rng.uniform(-1.0, 1.0, size=(3, 3))
            np.fill_diagonal(A, 0.0)
            A *= 0.9 / np.abs(A).sum(axis=1).max()
            b = rng.uniform(-2.0, 2.0, size=3)
            exact = np.linalg.solve(np.eye(3) - A, b)
            disciplines = self.make_disciplines(A, b)
            cfg = MdaConfig(tolerance=1e-11, max_iterations=500)
            state = gauss_seidel_solve(disciplines, [0.0], np.zeros(3), cfg)
            assert state.status[0] == MdaStatus.CONVERGED
            np.testing.assert_allclose(state.y[0], exact, atol=10.0 * cfg.tolerance * np.abs(exact).max() + 1e-12)

    def test_discipline_order_does_not_change_fixed_point(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(-1.0, 1.0, size=(3, 3))
        np.fill_diagonal(A, 0.0)
        A *= 0.8 / np.abs(A).sum(axis=1).max()
        b = rng.uniform(-1.0, 1.0, size=3)
        disciplines = self.make_disciplines(A, b)
        cfg = MdaConfig(tolerance=1e-11, max_iterations=500)
        forward = gauss_seidel_solve(disciplines, [0.0], np.zeros(3), cfg)
        backward = gauss_seidel_solve(disciplines[::-1], [0.0], np.zeros(3), cfg)
        assert forward.status[0] == backward.status[0] == MdaStatus.CONVERGED
        np.testing.assert_allclose(forward.y[0], backward.y[0], atol=10.0 * cfg.tolerance * np.abs(forward.y).max())


class TestAitken:
    def test_zero_update_keeps_factor_in_bounds(self):
        omega = aitken_update(np.array([0.7]), np.array([[0.0]]), np.array([[0.0]]))
        assert np.isfinite(omega).all()
        assert 0.05 <= omega[0] <= 2.0

    def test_recurrence_example(self):
        # -1 * (1 * (0.5 - 1)) / 0.25 = 2, already at the upper clamp
        assert aitken_update(np.array([1.0]), np.array([[1.0]]), np.array([[0.5]])).tolist() == [2.0]

    def test_clamping(self):
        # huge and tiny unclamped values
        assert aitken_update(np.array([1.0]), np.array([[1.0]]), np.array([[0.999]])).tolist() == [2.0]
        assert aitken_update(np.array([1e-4]), np.array([[1.0]]), np.array([[-1.0]])).tolist() == [0.05]

    def test_accelerates_slow_scalar_iteration(self):
        # y <- 0.9 y + 1, fixed point 10; unrelaxed contraction is 0.9/sweep
        disc = Discipline("lin", produces=[0], consumes=[0], fn=lambda Z, Y: 0.9 * Y[:, 0] + 1.0)
        tol = 1e-10
        plain = gauss_seidel_solve([disc], [0.0], np.array([0.0]), MdaConfig(tolerance=tol, max_iterations=1000, aitken=False))
        accel = gauss_seidel_solve([disc], [0.0], np.array([0.0]), MdaConfig(tolerance=tol, max_iterations=1000, aitken=True))
        assert plain.status[0] == accel.status[0] == MdaStatus.CONVERGED
        assert accel.iterations[0] < plain.iterations[0]
        assert plain.y[0, 0] == pytest.approx(10.0, rel=1e-9)
        assert accel.y[0, 0] == pytest.approx(10.0, rel=1e-9)


class TestBatchSolve:
    def test_batch_matches_single_solves(self):
        problem = toy_problem()
        Z = np.array([[-3.0], [0.5], [2.0], [4.5]])
        res = solve_batch(problem.disciplines, Z, problem.y_midpoint()[None, :], TIGHT)
        for k, z in enumerate(Z):
            single = gauss_seidel_solve(problem.disciplines, z, problem.y_midpoint(), TIGHT)
            assert type(single) is CouplingResult and single.y.shape == (1, 2)  # one result type, one row
            assert res.status[k] == single.status[0]
            np.testing.assert_allclose(res.y[k], single.y[0], rtol=1e-12, atol=1e-12)

    def test_mixed_statuses_in_one_batch(self):
        problem = sellar_problem()
        Z = np.array([[0.0, 2.6345, 0.0], [0.0, 0.0, 0.0]])
        y0 = np.array([[25.5, 9.5], [25.5, 10.0]])
        res = solve_batch(problem.disciplines, Z, y0, TIGHT)
        assert res.status[0] == int(MdaStatus.CONVERGED)
        assert res.status[1] == int(MdaStatus.EVALUATOR_FAILURE)

    def test_raised_failure_fails_every_row_of_the_call(self):
        # A raise is not per row: all three rows fail at the sweep where it happens, under one note.
        calls = []

        def raises_on_second_sweep(Z, Y):
            calls.append(Z.shape[0])
            if len(calls) == 2:
                raise DisciplineFailure("solver crashed", kind="crash")
            return 0.5 * Y[:, 0] + Z[:, 0]

        disc = Discipline("flaky", produces=[0], consumes=[0], fn=raises_on_second_sweep)
        res = solve_batch([disc], np.array([[1.0], [2.0], [3.0]]), np.zeros((3, 1)), TIGHT)
        assert calls == [3, 3]
        np.testing.assert_array_equal(res.status, [int(MdaStatus.EVALUATOR_FAILURE)] * 3)
        np.testing.assert_array_equal(res.iterations, [2, 2, 2])
        assert res.failure == "discipline 'flaky': solver crashed"
        assert np.isfinite(res.y).all()  # each row keeps its first-sweep iterate


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MdaConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            MdaConfig(max_iterations=0)

    def test_settings(self):
        # The relaxation start and clamp are module constants, not settings.
        assert [f.name for f in dataclasses.fields(MdaConfig)] == ["tolerance", "max_iterations", "aitken"]
        assert list(inspect.signature(aitken_update).parameters) == ["omega", "delta_prev", "delta_curr"]
        assert [f.name for f in dataclasses.fields(CouplingResult)] == ["y", "status", "iterations", "failure"]
        assert (OMEGA_INIT, OMEGA_BOUNDS) == (0.5, (0.05, 2.0))
        assert (STALL_START, STALL_WINDOW, STALL_RATIO) == (40, 20, 0.95)


PLAIN = MdaConfig(tolerance=1e-6, max_iterations=100, aitken=False)
# Rows with z[0] > 0 iterate y <- -y + 2, which never contracts; the others y <- 0.97 y + 0.3, slowly but steadily.
FLIP_OR_STEADY = Discipline(
    "flip-or-steady", produces=[0], consumes=[0], fn=lambda Z, Y: np.where(Z[:, 0] > 0.0, -Y[:, 0] + 2.0, 0.97 * Y[:, 0] + 0.3)
)


class TestStallExit:
    def test_non_contracting_row_retires_at_stall_start(self):
        res = solve_batch([FLIP_OR_STEADY], np.array([[1.0]]), np.array([[0.5]]), PLAIN)
        assert res.status[0] == MdaStatus.MAX_ITERATIONS
        assert res.iterations[0] == STALL_START == 40
        # the iterate flips 0.5 -> 1.5 -> 0.5 ..., so after an even number of sweeps it is back at 0.5
        assert res.y[0, 0] == 0.5

    def test_steady_row_converges_at_the_same_sweep_as_without_the_exit(self, monkeypatch):
        cfg = replace(PLAIN, max_iterations=1000)
        res = solve_batch([FLIP_OR_STEADY], np.array([[0.0]]), np.array([[0.0]]), cfg)
        monkeypatch.setattr(mda, "STALL_START", cfg.max_iterations + 1)
        without = solve_batch([FLIP_OR_STEADY], np.array([[0.0]]), np.array([[0.0]]), cfg)
        assert res.status[0] == without.status[0] == MdaStatus.CONVERGED
        assert res.iterations[0] == without.iterations[0] == 340
        np.testing.assert_array_equal(res.y, without.y)

    def test_steady_row_in_a_mixed_batch_equals_its_solo_solve(self):
        cfg = replace(PLAIN, max_iterations=1000)
        Z, y0 = np.array([[1.0], [0.0], [1.0]]), np.array([[0.5], [0.0], [0.25]])
        res = solve_batch([FLIP_OR_STEADY], Z, y0, cfg)
        solo = solve_batch([FLIP_OR_STEADY], Z[1:2], y0[1:2], cfg)
        capped, converged = int(MdaStatus.MAX_ITERATIONS), int(MdaStatus.CONVERGED)
        np.testing.assert_array_equal(res.status, [capped, converged, capped])
        np.testing.assert_array_equal(res.iterations[[0, 2]], [STALL_START, STALL_START])
        assert (res.status[1], res.iterations[1]) == (solo.status[0], solo.iterations[0])
        np.testing.assert_array_equal(res.y[1], solo.y[0])

    def test_tolerance_met_on_the_stall_sweep_counts_as_converged(self):
        # Both rows flip between 1 and 2 and so stall; on sweep STALL_START the row with
        # z[0] > 0 repeats its last output, a zero update that meets the tolerance.
        sweeps = []

        def flip_then_settle(Z, Y):
            sweeps.append(Z.shape[0])
            flipped = np.where(Y[:, 0] == 1.0, 2.0, 1.0)
            return np.where((Z[:, 0] > 0.0) & (len(sweeps) == STALL_START), Y[:, 0], flipped)

        disc = Discipline("flip", produces=[0], consumes=[0], fn=flip_then_settle)
        res = solve_batch([disc], np.array([[1.0], [0.0]]), np.ones((2, 1)), PLAIN)
        assert len(sweeps) == STALL_START
        np.testing.assert_array_equal(res.status, [int(MdaStatus.CONVERGED), int(MdaStatus.MAX_ITERATIONS)])
        np.testing.assert_array_equal(res.iterations, [STALL_START, STALL_START])


@pytest.mark.parametrize("make", [toy_problem, sellar_problem])
def test_stall_exit_leaves_reference_resolves_unchanged(make, monkeypatch):
    # Compares two runs on the same machine, not frozen digits, so it holds on any CPU.
    with_exit = resolve_reference(make(), recompute=True)
    monkeypatch.setattr(mda, "STALL_START", MdaConfig.reference(1e-10).max_iterations + 1)
    without_exit = resolve_reference(make(), recompute=True)
    np.testing.assert_array_equal(with_exit.z, without_exit.z)
    assert with_exit.objective == without_exit.objective


def reference_aitken_update(omega, delta_prev, delta_curr):
    """The earlier ``aitken_update``, clamping with ``np.clip``."""
    diff = delta_curr - delta_prev
    denom = np.einsum("ij,ij->i", diff, diff)
    num = np.einsum("ij,ij->i", delta_prev, diff)
    omega = np.where(denom > 0.0, -omega * np.divide(num, denom, out=np.zeros_like(num), where=denom > 0.0), omega)
    return np.clip(omega, OMEGA_BOUNDS[0], OMEGA_BOUNDS[1])


def reference_solve_batch(disciplines, Z, y0, cfg):
    """The earlier ``solve_batch``: gathers and scatters every row on every sweep.

    Kept as the reference the compacted loop must match bit for bit.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n = Z.shape[0]
    y = np.array(np.atleast_2d(np.asarray(y0, dtype=float)), copy=True)
    if y.shape[0] == 1 and n > 1:
        y = np.repeat(y, n, axis=0)
    status = np.full(n, int(MdaStatus.MAX_ITERATIONS))
    iterations = np.full(n, cfg.max_iterations)
    omega = np.full(n, OMEGA_INIT if cfg.aitken else 1.0)
    delta_prev = np.zeros_like(y)
    has_prev = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    failure_note = None
    for sweep in range(1, cfg.max_iterations + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        Z_act = Z[idx]
        y_act = y[idx]
        y_new = y_act.copy()
        failed = np.zeros(idx.size, dtype=bool)
        with np.errstate(all="ignore"):
            for disc in disciplines:
                try:
                    out = np.asarray(disc.fn(Z_act, y_new[:, disc.consumes]), dtype=float)
                except DisciplineFailure as exc:
                    failed[:] = True
                    failure_note = failure_note or f"discipline {disc.name!r}: {exc}"
                    break
                out = out.reshape(idx.size, disc.produces.size)
                bad = ~np.isfinite(out).all(axis=1)
                if bad.any():
                    failed |= bad
                    failure_note = failure_note or f"discipline {disc.name!r} returned non-finite output"
                y_new[:, disc.produces] = out
        if failed.any():
            fidx = idx[failed]
            status[fidx] = int(MdaStatus.EVALUATOR_FAILURE)
            iterations[fidx] = sweep
            active[fidx] = False
            ok = ~failed
            idx, y_act, y_new = idx[ok], y_act[ok], y_new[ok]
            if idx.size == 0:
                continue
        delta = y_new - y_act
        if cfg.aitken:
            prev_ok = has_prev[idx]
            if prev_ok.any():
                pidx = idx[prev_ok]
                omega[pidx] = reference_aitken_update(omega[pidx], delta_prev[pidx], delta[prev_ok])
        applied = omega[idx, None] * delta
        y_next = y_act + applied
        res = np.abs(applied) / np.maximum(np.abs(y_next), 1e-12)
        res = res.max(axis=1)
        y[idx] = y_next
        delta_prev[idx] = delta
        has_prev[idx] = True
        done = res <= cfg.tolerance
        didx = idx[done]
        status[didx] = int(MdaStatus.CONVERGED)
        iterations[didx] = sweep
        active[didx] = False
    return y, status, iterations, failure_note


def _rate_system(nan_after=None, raise_on_call=None):
    """Two coupled linear disciplines whose contraction rate is the row's z[0].

    ``nan_after`` makes the first discipline return NaN for rows with
    z[0] > 0.6 from that call on; ``raise_on_call`` makes the second raise
    a ``DisciplineFailure`` on that call. Counters start fresh per system.
    """
    calls = {"first": 0, "second": 0}

    def first(Z, Y):
        calls["first"] += 1
        out = Z[:, 0] * Y[:, 0] + Z[:, 1]
        if nan_after is not None and calls["first"] >= nan_after:
            out = np.where(Z[:, 0] > 0.6, np.nan, out)
        return out

    def second(Z, Y):
        calls["second"] += 1
        if calls["second"] == raise_on_call:
            raise DisciplineFailure("remote solver went away", kind="crash")
        return np.sin(Y[:, 0]) * Z[:, 0] + 1.0

    return [
        Discipline("first", produces=[0], consumes=[1], fn=first),
        Discipline("second", produces=[1], consumes=[0], fn=second),
    ]


RATES = np.array([[0.0, 1.0], [0.3, -2.0], [0.95, 0.5], [-0.7, 3.0], [0.8, 0.1], [0.5, 1.5], [-0.99, 0.2]])


class TestCompactedLoopMatchesReference:
    """``solve_batch`` keeps only its active rows; results equal the earlier full-gather loop."""

    CASES = {
        "nan-rows": (lambda: _rate_system(nan_after=3), RATES, np.zeros((7, 2)), MdaConfig(tolerance=1e-12)),
        "nan-first-sweep": (lambda: _rate_system(nan_after=1), RATES, np.zeros((7, 2)), MdaConfig(tolerance=1e-12)),
        "discipline-raises": (lambda: _rate_system(raise_on_call=5), RATES, np.zeros((7, 2)), MdaConfig(tolerance=1e-12)),
        "sweep-cap": (_rate_system, RATES, np.zeros((7, 2)), MdaConfig(tolerance=1e-12, max_iterations=6)),
        "no-aitken": (_rate_system, RATES, np.zeros((7, 2)), MdaConfig(tolerance=1e-12, max_iterations=40, aitken=False)),
        "no-aitken-nan": (
            lambda: _rate_system(nan_after=4), RATES, np.zeros((7, 2)), MdaConfig(tolerance=1e-12, aitken=False)
        ),
        "broadcast-y0": (_rate_system, RATES, np.array([[0.5, -0.5]]), MdaConfig(tolerance=1e-12)),
        "one-row": (_rate_system, RATES[2:3], np.zeros((1, 2)), MdaConfig(tolerance=1e-12, max_iterations=9)),
        "sellar": (
            lambda: sellar_problem().disciplines,
            np.random.default_rng(3).uniform([-10.0, 0.0, 0.0], [10.0, 10.0, 10.0], size=(45, 3)),
            np.array([[12.0, 12.0]]),
            MdaConfig(tolerance=1e-2),
        ),
        "toy-cap": (
            lambda: toy_problem().disciplines,
            np.random.default_rng(4).uniform(-5.0, 5.0, size=(30, 1)),
            toy_problem().y_midpoint()[None, :],
            MdaConfig(tolerance=1e-14, max_iterations=12),
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bit_identical(self, case):
        make, Z, y0, cfg = self.CASES[case]
        res = solve_batch(make(), Z, y0, cfg)
        y, status, iterations, failure = reference_solve_batch(make(), Z, y0, cfg)
        np.testing.assert_array_equal(res.y, y)
        np.testing.assert_array_equal(res.status, status)
        np.testing.assert_array_equal(res.iterations, iterations)
        assert res.failure == failure

    def test_aitken_update_matches_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n, d = rng.integers(1, 40), rng.integers(1, 4)
            omega = rng.uniform(-3.0, 3.0, n)
            prev = rng.normal(size=(n, d)) * rng.choice([1e-300, 1.0, 1e300], size=(n, d))
            curr = np.where(rng.random((n, d)) < 0.7, rng.normal(size=(n, d)), prev)  # some rows unchanged
            with np.errstate(all="ignore"):
                got = aitken_update(omega, prev, curr)
                want = reference_aitken_update(omega, prev, curr)
            np.testing.assert_array_equal(got, want)

    def test_cases_reach_every_status(self):
        seen = set()
        for make, Z, y0, cfg in self.CASES.values():
            seen.update(solve_batch(make(), Z, y0, cfg).status.tolist())
        assert seen == {int(s) for s in MdaStatus}
